//! The Whirlpool programmer API (Sec. 3.1).
//!
//! ```text
//! pool_t pool_create();
//! void*  pool_malloc(size_t size, pool_t pool_id);
//! ```
//!
//! [`PoolAllocator`] is the Rust rendering of that interface: a pool-aware
//! allocator whose classification is exported as
//! [`wp_sim::PoolDescriptor`]s for the memory system. Porting an app is a
//! handful of lines — create a pool per major data structure and route its
//! allocations through it (Table 2 measures 8–53 LOC per app).

use std::collections::HashMap;

use wp_mem::{CallpointId, Heap, PoolId, VirtAddr};
use wp_sim::PoolDescriptor;

/// The pool-aware allocator handed to applications.
///
/// Wraps the `wp-mem` heap with named pools and descriptor export. Names
/// exist for reporting only — the hardware sees opaque pool ids.
#[derive(Debug)]
pub struct PoolAllocator {
    heap: Heap,
    names: HashMap<PoolId, String>,
    /// Synthetic return PC counter so each create-site gets a distinct
    /// callpoint when the caller does not supply one.
    next_pc: u64,
}

impl Default for PoolAllocator {
    fn default() -> Self {
        Self::new()
    }
}

impl PoolAllocator {
    /// Creates an allocator with an empty heap.
    pub fn new() -> Self {
        Self {
            heap: Heap::new(),
            names: HashMap::new(),
            next_pc: 0x40_0000,
        }
    }

    /// `pool_create()`: creates a named pool.
    pub fn pool_create(&mut self, name: impl Into<String>) -> PoolId {
        let id = self.heap.create_pool();
        self.names.insert(id, name.into());
        id
    }

    /// `pool_malloc(size, pool)` with an auto-generated callpoint.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or the pool does not exist.
    pub fn pool_malloc(&mut self, size: u64, pool: PoolId) -> VirtAddr {
        let cp = self.fresh_callpoint();
        self.heap.pool_malloc(size, pool, cp)
    }

    /// `pool_calloc(count, elem_size, pool)`.
    pub fn pool_calloc(&mut self, count: u64, elem_size: u64, pool: PoolId) -> VirtAddr {
        let cp = self.fresh_callpoint();
        self.heap.pool_calloc(count, elem_size, pool, cp)
    }

    /// `pool_realloc(old, new_size, pool)`.
    pub fn pool_realloc(&mut self, old: VirtAddr, new_size: u64, pool: PoolId) -> VirtAddr {
        let cp = self.fresh_callpoint();
        self.heap.pool_realloc(old, new_size, pool, cp)
    }

    /// Plain `malloc` — untagged data that stays in the thread VC.
    pub fn malloc(&mut self, size: u64) -> VirtAddr {
        let cp = self.fresh_callpoint();
        self.heap.malloc(size, cp)
    }

    /// `free(ptr)`.
    ///
    /// # Panics
    ///
    /// Panics on double/wild frees.
    pub fn free(&mut self, addr: VirtAddr) {
        self.heap.free(addr);
    }

    /// The pool owning `addr`, if any.
    pub fn pool_of(&self, addr: VirtAddr) -> Option<PoolId> {
        self.heap.pool_of_addr(addr)
    }

    /// The name of a pool.
    pub fn pool_name(&self, pool: PoolId) -> Option<&str> {
        self.names.get(&pool).map(|s| s.as_str())
    }

    /// Read access to the underlying heap (profiling, tests).
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// Exports the classification as pool descriptors for the memory
    /// system, in pool-creation order. Pools with no pages are skipped.
    pub fn descriptors(&self) -> Vec<PoolDescriptor> {
        let mut ids: Vec<PoolId> = self.names.keys().copied().collect();
        ids.sort();
        ids.iter()
            .filter_map(|&id| {
                let pages = self.heap.pages_of_pool(id);
                if pages.is_empty() {
                    return None;
                }
                Some(PoolDescriptor {
                    name: self.names[&id].clone(),
                    pool: Some(id),
                    pages: pages.to_vec(),
                    bytes: self.heap.pool_live_bytes(id),
                })
            })
            .collect()
    }

    fn fresh_callpoint(&mut self) -> CallpointId {
        self.next_pc += 4;
        CallpointId::from_return_pcs(self.next_pc, self.next_pc ^ 0x1000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dt_style_classification() {
        // The paper's dt port: 3 pools, ~11 LOC (Table 2).
        let mut a = PoolAllocator::new();
        let points = a.pool_create("points");
        let vertices = a.pool_create("vertices");
        let triangles = a.pool_create("triangles");
        a.pool_malloc(512 * 1024, points);
        a.pool_malloc(1536 * 1024, vertices);
        a.pool_malloc(4 * 1024 * 1024, triangles);
        let d = a.descriptors();
        assert_eq!(d.len(), 3);
        assert_eq!(d[0].name, "points");
        assert!(d[2].bytes >= 4 * 1024 * 1024);
        // Page exclusivity: descriptors' page sets are disjoint.
        let mut seen = std::collections::HashSet::new();
        for desc in &d {
            for p in &desc.pages {
                assert!(seen.insert(*p), "page in two pools");
            }
        }
    }

    #[test]
    fn empty_pools_are_not_exported() {
        let mut a = PoolAllocator::new();
        a.pool_create("unused");
        assert!(a.descriptors().is_empty());
    }

    #[test]
    fn untagged_malloc_has_no_pool() {
        let mut a = PoolAllocator::new();
        let p = a.malloc(100);
        assert_eq!(a.pool_of(p), None);
    }

    #[test]
    fn realloc_keeps_classification() {
        let mut a = PoolAllocator::new();
        let pool = a.pool_create("grid");
        let p = a.pool_malloc(1000, pool);
        let q = a.pool_realloc(p, 100_000, pool);
        assert_eq!(a.pool_of(q), Some(pool));
    }

    #[test]
    fn names_resolve() {
        let mut a = PoolAllocator::new();
        let p = a.pool_create("edges");
        assert_eq!(a.pool_name(p), Some("edges"));
    }
}
