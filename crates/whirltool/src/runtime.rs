//! The WhirlTool runtime (Sec. 4.3): a drop-in allocator shim.
//!
//! "On each allocation call, the tool finds the callpoint id and calls the
//! Whirlpool allocator with the corresponding pool. Allocations from an
//! unprofiled callpoint use the thread-private pool." Overheads are tiny
//! (≤0.01%): one hash lookup per allocation.

use std::collections::HashMap;

use wp_mem::{CallpointId, Heap, PoolId, VirtAddr};

/// The allocator shim: callpoint → pool routing over a pool-aware heap.
#[derive(Debug)]
pub struct WhirlToolRuntime {
    heap: Heap,
    /// Callpoint → pool (from the analyzer's assignment).
    routes: HashMap<CallpointId, PoolId>,
}

impl WhirlToolRuntime {
    /// Builds the runtime from an analyzer assignment
    /// (callpoint → cluster label).
    pub fn new(assignment: &HashMap<CallpointId, usize>) -> Self {
        let mut heap = Heap::new();
        let mut cluster_pools = HashMap::new();
        let mut labels: Vec<usize> = assignment.values().copied().collect();
        labels.sort_unstable();
        labels.dedup();
        for label in labels {
            cluster_pools.insert(label, heap.create_pool());
        }
        let routes = assignment
            .iter()
            .map(|(&cp, &label)| (cp, cluster_pools[&label]))
            .collect();
        Self { heap, routes }
    }

    /// `malloc(size)` intercepted at `callpoint`: routes to the assigned
    /// pool, or the default (thread-private) heap when unprofiled.
    pub fn malloc(&mut self, size: u64, callpoint: CallpointId) -> VirtAddr {
        match self.routes.get(&callpoint) {
            Some(&pool) => self.heap.pool_malloc(size, pool, callpoint),
            None => self.heap.malloc(size, callpoint),
        }
    }

    /// `free(ptr)`.
    ///
    /// # Panics
    ///
    /// Panics on double/wild frees.
    pub fn free(&mut self, addr: VirtAddr) {
        self.heap.free(addr);
    }

    /// The underlying heap (for descriptor export).
    pub fn heap(&self) -> &Heap {
        &self.heap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assignment() -> HashMap<CallpointId, usize> {
        let mut m = HashMap::new();
        m.insert(CallpointId(10), 0);
        m.insert(CallpointId(11), 0);
        m.insert(CallpointId(20), 1);
        m
    }

    #[test]
    fn same_cluster_shares_pool() {
        let mut rt = WhirlToolRuntime::new(&assignment());
        let a = rt.malloc(4096, CallpointId(10));
        let b = rt.malloc(4096, CallpointId(11));
        let c = rt.malloc(4096, CallpointId(20));
        let pa = rt.heap().pool_of_addr(a);
        let pb = rt.heap().pool_of_addr(b);
        let pc = rt.heap().pool_of_addr(c);
        assert_eq!(pa, pb);
        assert_ne!(pa, pc);
    }

    #[test]
    fn unprofiled_goes_to_default_heap() {
        let mut rt = WhirlToolRuntime::new(&assignment());
        let x = rt.malloc(100, CallpointId(999));
        assert_eq!(rt.heap().pool_of_addr(x), None);
    }

    #[test]
    fn free_works() {
        let mut rt = WhirlToolRuntime::new(&assignment());
        let a = rt.malloc(64, CallpointId(10));
        rt.free(a);
    }

    #[test]
    fn empty_assignment_routes_everything_to_default() {
        let mut rt = WhirlToolRuntime::new(&HashMap::new());
        let a = rt.malloc(64, CallpointId(1));
        assert_eq!(rt.heap().pool_of_addr(a), None);
    }
}
