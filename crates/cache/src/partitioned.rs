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

    /// Total line budget across partitions.
    pub fn total_capacity(&self) -> usize {
        self.total_capacity
    }

    /// Sum of quotas currently assigned.
    pub fn assigned_capacity(&self) -> usize {
        self.parts.iter().flatten().map(|p| p.capacity()).sum()
    }

    /// Sets partition `id`'s quota to `lines`, creating it if absent.
    /// Returns lines evicted if the partition shrank.
    pub fn set_quota(&mut self, id: u32, lines: usize) -> Vec<u64> {
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

    /// Whether `addr` is resident in partition `id`.
    pub fn contains(&self, id: u32, addr: u64) -> bool {
        self.part(id).is_some_and(|p| p.contains(addr))
    }

    /// Invalidates `addr` in partition `id`.
    pub fn invalidate(&mut self, id: u32, addr: u64) -> bool {
        self.part_mut(id).is_some_and(|p| p.invalidate(addr))
    }

    /// Removes partition `id` entirely, returning its resident lines
    /// (the whole-VC invalidation used when a VC enters bypass mode).
    pub fn remove_partition(&mut self, id: u32) -> Vec<u64> {
        self.parts
            .get_mut(id as usize)
            .and_then(Option::take)
            .map(|mut p| p.drain())
            .unwrap_or_default()
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
        assert!(c.contains(1, 100) && c.contains(1, 101));
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
        let evicted = c.set_quota(1, 1);
        assert_eq!(evicted.len(), 3);
        assert_eq!(c.occupancy(1), 1);
        assert!(c.contains(1, 3), "MRU line survives the shrink");
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
        let lines = c.remove_partition(3);
        assert_eq!(lines.len(), 2);
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
            assert!(!c.contains(id, 1));
            assert!(!c.invalidate(id, 1));
            assert!(c.remove_partition(id).is_empty());
        }
        c.access(9, 42);
        assert!(c.contains(9, 42) && !c.contains(3, 42));
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
        assert_eq!(c.remove_partition(2), vec![7]);
        assert_eq!(c.parts.iter().flatten().count(), 0);
        c.set_quota_lazy(2, 3);
        assert_eq!(c.quota(2), 3);
        assert_eq!(c.occupancy(2), 0);
        assert!(
            !c.contains(2, 7),
            "a recreated partition holds no old lines"
        );
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
}
