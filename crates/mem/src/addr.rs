//! Address-space newtypes and layout constants.

/// Bytes per cache line (Table 3).
pub const LINE_BYTES: u64 = 64;

/// Bytes per virtual-memory page.
pub const PAGE_BYTES: u64 = 4096;

/// Cache lines per page.
pub const LINES_PER_PAGE: u64 = PAGE_BYTES / LINE_BYTES;

/// A byte-granularity virtual address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VirtAddr(pub u64);

/// A cache-line address (virtual address >> 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LineAddr(pub u64);

/// A page number (virtual address >> 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u64);

impl VirtAddr {
    /// The line containing this address.
    pub fn line(self) -> LineAddr {
        LineAddr(self.0 / LINE_BYTES)
    }

    /// The page containing this address.
    pub fn page(self) -> PageId {
        PageId(self.0 / PAGE_BYTES)
    }

    /// This address advanced by `bytes`.
    pub fn offset(self, bytes: u64) -> VirtAddr {
        VirtAddr(self.0 + bytes)
    }
}

impl LineAddr {
    /// First byte of the line.
    pub fn base(self) -> VirtAddr {
        VirtAddr(self.0 * LINE_BYTES)
    }

    /// The page containing this line.
    pub fn page(self) -> PageId {
        PageId(self.0 / LINES_PER_PAGE)
    }
}

impl PageId {
    /// First byte of the page.
    pub fn base(self) -> VirtAddr {
        VirtAddr(self.0 * PAGE_BYTES)
    }

    /// First line of the page.
    pub fn first_line(self) -> LineAddr {
        LineAddr(self.0 * LINES_PER_PAGE)
    }
}

impl std::fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_and_page_extraction() {
        let a = VirtAddr(0x12345);
        assert_eq!(a.line(), LineAddr(0x12345 / 64));
        assert_eq!(a.page(), PageId(0x12));
    }

    #[test]
    fn lines_per_page_consistent() {
        assert_eq!(LINES_PER_PAGE, 64);
        let p = PageId(7);
        assert_eq!(p.first_line().page(), p);
        assert_eq!(p.base().page(), p);
    }

    #[test]
    fn line_base_roundtrip() {
        let l = LineAddr(1234);
        assert_eq!(l.base().line(), l);
    }
}
