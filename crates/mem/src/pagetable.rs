//! The page → virtual-cache tag mapping (the TLB-resident classification).

use std::collections::HashMap;

use crate::addr::{PageId, VirtAddr};

/// A virtual-cache identifier, as carried in page-table entries / the TLB.
///
/// Jigsaw reserves three VCs per context (thread-private, process, global);
/// Whirlpool adds user-level VCs, one per memory pool (Sec. 3.2). Id
/// allocation and semantics live in `wp-jigsaw` / `whirlpool`; this crate
/// only stores the tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VcId(pub u32);

/// A page table mapping pages to VC tags.
///
/// Pages without an explicit tag report `None`; the memory system maps such
/// pages to the accessing thread's private VC (the paper's lazy-upgrade
/// default).
#[derive(Debug, Clone, Default)]
pub struct PageTable {
    tags: HashMap<PageId, VcId>,
}

impl PageTable {
    /// Creates an empty page table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tags every page overlapping `[start, start + len)` — the
    /// `sys_vc_tag` system call. Zero-length ranges tag nothing.
    pub fn tag_range(&mut self, start: VirtAddr, len: u64, vc: VcId) {
        if len == 0 {
            return;
        }
        let first = start.page().0;
        let last = VirtAddr(start.0 + len - 1).page().0;
        for p in first..=last {
            self.tags.insert(PageId(p), vc);
        }
    }

    /// The VC tag of a page, if any.
    pub fn vc_of_page(&self, page: PageId) -> Option<VcId> {
        self.tags.get(&page).copied()
    }

    /// The VC tag of the page containing `addr`, if any.
    pub fn vc_of_addr(&self, addr: VirtAddr) -> Option<VcId> {
        self.vc_of_page(addr.page())
    }

    /// Iterates `(page, tag)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (PageId, VcId)> + '_ {
        self.tags.iter().map(|(&p, &v)| (p, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PAGE_BYTES;

    #[test]
    fn tag_range_covers_partial_pages() {
        let mut pt = PageTable::new();
        // 100 bytes starting 50 bytes before a page boundary: 2 pages.
        pt.tag_range(VirtAddr(PAGE_BYTES - 50), 100, VcId(3));
        assert_eq!(pt.vc_of_page(PageId(0)), Some(VcId(3)));
        assert_eq!(pt.vc_of_page(PageId(1)), Some(VcId(3)));
        assert_eq!(pt.vc_of_page(PageId(2)), None);
        assert_eq!(pt.iter().count(), 2);
    }

    #[test]
    fn zero_length_tags_nothing() {
        let mut pt = PageTable::new();
        pt.tag_range(VirtAddr(0), 0, VcId(1));
        assert_eq!(pt.iter().count(), 0);
    }

    #[test]
    fn later_tag_wins() {
        let mut pt = PageTable::new();
        pt.tag_range(PageId(5).base(), 1, VcId(1));
        pt.tag_range(PageId(5).base(), 1, VcId(2));
        assert_eq!(pt.vc_of_page(PageId(5)), Some(VcId(2)));
    }
}
