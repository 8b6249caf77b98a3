//! The pool-aware heap allocator.
//!
//! Models Whirlpool's allocator (built on Doug Lea's malloc in the paper,
//! Sec. 3.2): a region allocator in which every *pool* owns whole pages, so
//! a page belongs to exactly one pool (or none) at a time — the invariant
//! that lets the virtual-memory system classify data. Each allocation also
//! records its *callpoint* (the hash of the two innermost allocation-site
//! frames), the identity WhirlTool's profiler keys on (Sec. 4.1).

use std::collections::HashMap;

use crate::addr::{PageId, VirtAddr, PAGE_BYTES};

/// Identifies a memory pool created with [`Heap::create_pool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PoolId(pub u32);

/// Identifies an allocation callpoint: the paper hashes the last two return
/// PCs of the allocation call stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CallpointId(pub u64);

impl CallpointId {
    /// Builds a callpoint id from the two innermost return PCs, as the
    /// WhirlTool profiler does when walking the stack.
    pub fn from_return_pcs(pc0: u64, pc1: u64) -> Self {
        // 64-bit FNV-1a over the two PCs.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in pc0.to_le_bytes().iter().chain(pc1.to_le_bytes().iter()) {
            h ^= *b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        Self(h)
    }
}

/// One live allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Allocation {
    /// First byte.
    pub addr: VirtAddr,
    /// Requested size in bytes.
    pub size: u64,
    /// Owning pool (`None` = default, untagged heap).
    pub pool: Option<PoolId>,
    /// Allocation site.
    pub callpoint: CallpointId,
}

#[derive(Debug, Default)]
struct PoolArena {
    /// Current partially-filled extent: next free byte and end.
    bump: u64,
    end: u64,
    /// Pages owned by this pool.
    pages: Vec<PageId>,
    /// Bytes handed out.
    allocated_bytes: u64,
}

/// The pool-aware heap.
///
/// Addresses are virtual and never reused across pools: extents are carved
/// from a single upward-growing address space, whole pages at a time, so
/// page exclusivity holds by construction. `free` returns space to the
/// pool's accounting but (like many region allocators) does not recycle
/// addresses across pools — exactly the property Whirlpool needs.
#[derive(Debug)]
pub struct Heap {
    next_page: u64,
    pools: HashMap<Option<PoolId>, PoolArena>,
    next_pool: u32,
    allocations: HashMap<u64, Allocation>,
    page_owner: HashMap<PageId, Option<PoolId>>,
}

/// Default extent growth: 16 pages (64 KB) at a time, amortizing page
/// acquisition like dlmalloc's top-chunk growth.
const EXTENT_PAGES: u64 = 16;

impl Default for Heap {
    fn default() -> Self {
        Self::new()
    }
}

impl Heap {
    /// Creates an empty heap starting at a nonzero base (so address 0 is
    /// never valid, catching null-ish bugs in traces).
    pub fn new() -> Self {
        Self::with_base_page(16) // base = 64 KB
    }

    /// Creates a heap whose first extent starts at `base_page` — distinct
    /// processes in multi-program runs get disjoint address spaces, as real
    /// virtual memory provides.
    pub fn with_base_page(base_page: u64) -> Self {
        Self {
            next_page: base_page.max(1),
            pools: HashMap::new(),
            next_pool: 1,
            allocations: HashMap::new(),
            page_owner: HashMap::new(),
        }
    }

    /// `pool_create()`: returns a fresh pool id.
    pub fn create_pool(&mut self) -> PoolId {
        let id = PoolId(self.next_pool);
        self.next_pool += 1;
        self.pools.entry(Some(id)).or_default();
        id
    }

    /// `pool_malloc(size, pool)`: allocates `size` bytes from `pool`.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or the pool was never created.
    pub fn pool_malloc(&mut self, size: u64, pool: PoolId, callpoint: CallpointId) -> VirtAddr {
        assert!(
            self.pools.contains_key(&Some(pool)),
            "pool {pool:?} was never created"
        );
        self.alloc_in(size, Some(pool), callpoint)
    }

    /// `malloc(size)`: allocates from the default (untagged) heap.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn malloc(&mut self, size: u64, callpoint: CallpointId) -> VirtAddr {
        self.alloc_in(size, None, callpoint)
    }

    /// `pool_calloc`: same as [`pool_malloc`](Self::pool_malloc) (the
    /// simulation carries no data, so zeroing is a no-op).
    pub fn pool_calloc(
        &mut self,
        count: u64,
        elem_size: u64,
        pool: PoolId,
        callpoint: CallpointId,
    ) -> VirtAddr {
        self.pool_malloc(count * elem_size, pool, callpoint)
    }

    /// `pool_realloc`: allocates a new block in `pool` and frees the old
    /// one; returns the new address.
    ///
    /// # Panics
    ///
    /// Panics if `old` is not a live allocation.
    pub fn pool_realloc(
        &mut self,
        old: VirtAddr,
        new_size: u64,
        pool: PoolId,
        callpoint: CallpointId,
    ) -> VirtAddr {
        self.free(old);
        self.pool_malloc(new_size, pool, callpoint)
    }

    fn alloc_in(&mut self, size: u64, pool: Option<PoolId>, callpoint: CallpointId) -> VirtAddr {
        assert!(size > 0, "zero-byte allocation");
        let size_aligned = (size + 15) & !15;
        // Reserve new pages if the current extent cannot fit the request.
        let arena = self.pools.entry(pool).or_default();
        if arena.end - arena.bump < size_aligned {
            let pages_needed = size_aligned.div_ceil(PAGE_BYTES).max(EXTENT_PAGES);
            let first = self.next_page;
            self.next_page += pages_needed;
            let arena = self.pools.get_mut(&pool).expect("just inserted");
            arena.bump = first * PAGE_BYTES;
            arena.end = (first + pages_needed) * PAGE_BYTES;
            for p in first..first + pages_needed {
                arena.pages.push(PageId(p));
                let prev = self.page_owner.insert(PageId(p), pool);
                debug_assert!(prev.is_none(), "page handed out twice");
            }
        }
        let arena = self.pools.get_mut(&pool).expect("arena exists");
        let addr = VirtAddr(arena.bump);
        arena.bump += size_aligned;
        arena.allocated_bytes += size;
        self.allocations.insert(
            addr.0,
            Allocation {
                addr,
                size,
                pool,
                callpoint,
            },
        );
        addr
    }

    /// Frees a live allocation.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not a live allocation (double free / wild free).
    pub fn free(&mut self, addr: VirtAddr) {
        let alloc = self
            .allocations
            .remove(&addr.0)
            .unwrap_or_else(|| panic!("free of non-live address {addr}"));
        if let Some(arena) = self.pools.get_mut(&alloc.pool) {
            arena.allocated_bytes = arena.allocated_bytes.saturating_sub(alloc.size);
        }
    }

    /// The pool owning the page containing `addr` (`None` for the default
    /// heap or unmapped addresses).
    pub fn pool_of_addr(&self, addr: VirtAddr) -> Option<PoolId> {
        self.page_owner.get(&addr.page()).copied().flatten()
    }

    /// Pages owned by `pool` (in allocation order).
    pub fn pages_of_pool(&self, pool: PoolId) -> &[PageId] {
        self.pools
            .get(&Some(pool))
            .map(|a| a.pages.as_slice())
            .unwrap_or(&[])
    }

    /// Live bytes allocated from `pool`.
    pub fn pool_live_bytes(&self, pool: PoolId) -> u64 {
        self.pools
            .get(&Some(pool))
            .map(|a| a.allocated_bytes)
            .unwrap_or(0)
    }

    /// Iterates all live allocations in unspecified order.
    pub fn allocations(&self) -> impl Iterator<Item = &Allocation> {
        self.allocations.values()
    }

    /// Number of pools ever created.
    pub fn pool_count(&self) -> u32 {
        self.next_pool - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CP: CallpointId = CallpointId(1);

    #[test]
    fn pools_never_share_pages() {
        let mut h = Heap::new();
        let p1 = h.create_pool();
        let p2 = h.create_pool();
        let mut pages1 = std::collections::HashSet::new();
        let mut pages2 = std::collections::HashSet::new();
        for i in 0..200 {
            let a = h.pool_malloc(100 + i, p1, CP);
            pages1.insert(a.page());
            let b = h.pool_malloc(300, p2, CP);
            pages2.insert(b.page());
        }
        assert!(pages1.is_disjoint(&pages2), "page shared between pools");
    }

    #[test]
    fn default_heap_is_unpooled() {
        let mut h = Heap::new();
        let a = h.malloc(64, CP);
        assert_eq!(h.pool_of_addr(a), None);
    }

    #[test]
    fn pool_of_addr_resolves_interior_pointers() {
        let mut h = Heap::new();
        let p = h.create_pool();
        let a = h.pool_malloc(10 * PAGE_BYTES, p, CP);
        assert_eq!(h.pool_of_addr(a.offset(5 * PAGE_BYTES + 17)), Some(p));
    }

    #[test]
    fn allocations_are_16_byte_aligned_and_disjoint() {
        let mut h = Heap::new();
        let p = h.create_pool();
        let mut prev_end = 0u64;
        for sz in [1u64, 15, 16, 17, 100, 4096, 5000] {
            let a = h.pool_malloc(sz, p, CP);
            assert_eq!(a.0 % 16, 0, "misaligned");
            assert!(a.0 >= prev_end, "overlap");
            prev_end = a.0 + sz;
        }
    }

    #[test]
    fn free_and_live_bytes() {
        let mut h = Heap::new();
        let p = h.create_pool();
        let a = h.pool_malloc(1000, p, CP);
        h.pool_malloc(500, p, CP);
        assert_eq!(h.pool_live_bytes(p), 1500);
        h.free(a);
        assert_eq!(h.pool_live_bytes(p), 500);
    }

    #[test]
    #[should_panic(expected = "free of non-live")]
    fn double_free_panics() {
        let mut h = Heap::new();
        let p = h.create_pool();
        let a = h.pool_malloc(8, p, CP);
        h.free(a);
        h.free(a);
    }

    #[test]
    #[should_panic(expected = "never created")]
    fn malloc_from_unknown_pool_panics() {
        let mut h = Heap::new();
        h.pool_malloc(8, PoolId(99), CP);
    }

    #[test]
    fn realloc_moves_and_preserves_pool() {
        let mut h = Heap::new();
        let p = h.create_pool();
        let a = h.pool_malloc(100, p, CP);
        let b = h.pool_realloc(a, 10_000, p, CP);
        assert_ne!(a, b);
        assert_eq!(h.pool_of_addr(b), Some(p));
        assert!(h.allocations().all(|x| x.addr != a));
    }

    #[test]
    fn callpoints_recorded() {
        let mut h = Heap::new();
        let p = h.create_pool();
        let cp = CallpointId::from_return_pcs(0x400_123, 0x400_456);
        let a = h.pool_malloc(64, p, cp);
        let alloc = h.allocations().find(|x| x.addr == a).unwrap();
        assert_eq!(alloc.callpoint, cp);
    }

    #[test]
    fn callpoint_hash_distinguishes_sites() {
        let a = CallpointId::from_return_pcs(0x400_123, 0x400_456);
        let b = CallpointId::from_return_pcs(0x400_123, 0x400_457);
        assert_ne!(a, b);
    }

    #[test]
    fn big_allocation_spans_whole_extent() {
        let mut h = Heap::new();
        let p = h.create_pool();
        let a = h.pool_malloc(100 * PAGE_BYTES, p, CP);
        // All 100 pages owned by the pool.
        for i in 0..100 {
            assert_eq!(h.pool_of_addr(a.offset(i * PAGE_BYTES)), Some(p));
        }
    }
}
