//! The VC-management system calls (Sec. 3.2).
//!
//! Whirlpool exposes VCs to user programs through a small syscall surface:
//! `sys_vc_alloc` allocates a user-level VC; `sys_vc_free` deallocates it;
//! `sys_vc_tag` tags a page range; and `sys_mmap` optionally tags fresh
//! mappings. "These system calls perform the adequate checks to ensure
//! safety (e.g., allowing each process to map pages only to its own
//! user-level VCs)" — [`VcRegistry`] enforces exactly that.

use std::collections::HashMap;

use wp_mem::{PageTable, VcId, VirtAddr};

/// A process identifier for ownership checks.
pub type ProcessId = u32;

/// Errors returned by the VC syscalls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SysError {
    /// The VC id does not exist (never allocated or already freed).
    NoSuchVc,
    /// The VC belongs to a different process.
    NotOwner,
    /// The per-process user-VC budget is exhausted (VTB entries are a
    /// finite hardware resource; the paper provisions 4 per core).
    TooManyVcs,
}

impl std::fmt::Display for SysError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            SysError::NoSuchVc => "no such virtual cache",
            SysError::NotOwner => "virtual cache belongs to another process",
            SysError::TooManyVcs => "user virtual-cache budget exhausted",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for SysError {}

/// The OS-side registry of user-level VCs plus the system page table.
#[derive(Debug)]
pub struct VcRegistry {
    owners: HashMap<VcId, ProcessId>,
    page_table: PageTable,
    next_vc: u32,
    per_process_limit: usize,
}

impl VcRegistry {
    /// User-level VC ids start above the reserved thread/process/global
    /// range (we reserve the low 1024 ids for the runtime's built-ins).
    const FIRST_USER_VC: u32 = 1024;

    /// Creates a registry with a per-process user-VC limit.
    pub fn new(per_process_limit: usize) -> Self {
        Self {
            owners: HashMap::new(),
            page_table: PageTable::new(),
            next_vc: Self::FIRST_USER_VC,
            per_process_limit,
        }
    }

    /// `sys_vc_alloc`: allocates a user VC for `process`.
    ///
    /// # Errors
    ///
    /// [`SysError::TooManyVcs`] if the process is at its limit.
    pub fn sys_vc_alloc(&mut self, process: ProcessId) -> Result<VcId, SysError> {
        let owned = self.owners.values().filter(|&&p| p == process).count();
        if owned >= self.per_process_limit {
            return Err(SysError::TooManyVcs);
        }
        let id = VcId(self.next_vc);
        self.next_vc += 1;
        self.owners.insert(id, process);
        Ok(id)
    }

    /// `sys_vc_free`: deallocates `vc`, untagging nothing (pages fall back
    /// to the thread VC lazily, as on upgrade).
    ///
    /// # Errors
    ///
    /// [`SysError::NoSuchVc`] / [`SysError::NotOwner`].
    pub fn sys_vc_free(&mut self, process: ProcessId, vc: VcId) -> Result<(), SysError> {
        self.check_owner(process, vc)?;
        self.owners.remove(&vc);
        Ok(())
    }

    /// `sys_vc_tag`: tags `[start, start+len)` with `vc`.
    ///
    /// # Errors
    ///
    /// [`SysError::NoSuchVc`] / [`SysError::NotOwner`].
    pub fn sys_vc_tag(
        &mut self,
        process: ProcessId,
        start: VirtAddr,
        len: u64,
        vc: VcId,
    ) -> Result<(), SysError> {
        self.check_owner(process, vc)?;
        self.page_table.tag_range(start, len, vc);
        Ok(())
    }

    /// `sys_mmap` with an optional VC tag: maps (trivially, in simulation)
    /// and tags if requested.
    ///
    /// # Errors
    ///
    /// Ownership errors when `vc` is provided and not owned by `process`.
    pub fn sys_mmap(
        &mut self,
        process: ProcessId,
        start: VirtAddr,
        len: u64,
        vc: Option<VcId>,
    ) -> Result<(), SysError> {
        if let Some(vc) = vc {
            self.sys_vc_tag(process, start, len, vc)?;
        }
        Ok(())
    }

    /// The system page table (consumed by the memory system).
    pub fn page_table(&self) -> &PageTable {
        &self.page_table
    }

    fn check_owner(&self, process: ProcessId, vc: VcId) -> Result<(), SysError> {
        match self.owners.get(&vc) {
            None => Err(SysError::NoSuchVc),
            Some(&p) if p != process => Err(SysError::NotOwner),
            Some(_) => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_tag_and_lookup() {
        let mut r = VcRegistry::new(4);
        let vc = r.sys_vc_alloc(1).unwrap();
        r.sys_vc_tag(1, VirtAddr(0x10000), 8192, vc).unwrap();
        assert_eq!(r.page_table().vc_of_addr(VirtAddr(0x10000)), Some(vc));
        assert_eq!(r.page_table().vc_of_addr(VirtAddr(0x12000 - 1)), Some(vc));
        assert_eq!(r.page_table().vc_of_addr(VirtAddr(0x12000)), None);
    }

    #[test]
    fn cross_process_tagging_is_rejected() {
        let mut r = VcRegistry::new(4);
        let vc = r.sys_vc_alloc(1).unwrap();
        let err = r.sys_vc_tag(2, VirtAddr(0), 4096, vc).unwrap_err();
        assert_eq!(err, SysError::NotOwner);
    }

    #[test]
    fn per_process_limit() {
        let mut r = VcRegistry::new(2);
        r.sys_vc_alloc(7).unwrap();
        r.sys_vc_alloc(7).unwrap();
        assert_eq!(r.sys_vc_alloc(7).unwrap_err(), SysError::TooManyVcs);
        // Other processes unaffected.
        assert!(r.sys_vc_alloc(8).is_ok());
    }

    #[test]
    fn free_releases_budget() {
        let mut r = VcRegistry::new(1);
        let vc = r.sys_vc_alloc(1).unwrap();
        assert!(r.sys_vc_alloc(1).is_err());
        r.sys_vc_free(1, vc).unwrap();
        assert!(r.sys_vc_alloc(1).is_ok());
    }

    #[test]
    fn freeing_foreign_vc_fails() {
        let mut r = VcRegistry::new(4);
        let vc = r.sys_vc_alloc(1).unwrap();
        assert_eq!(r.sys_vc_free(2, vc).unwrap_err(), SysError::NotOwner);
        assert_eq!(
            r.sys_vc_free(1, VcId(9999)).unwrap_err(),
            SysError::NoSuchVc
        );
    }

    #[test]
    fn mmap_with_and_without_tag() {
        let mut r = VcRegistry::new(4);
        let vc = r.sys_vc_alloc(1).unwrap();
        r.sys_mmap(1, VirtAddr(0x2000), 4096, Some(vc)).unwrap();
        r.sys_mmap(1, VirtAddr(0x8000), 4096, None).unwrap();
        assert_eq!(r.page_table().vc_of_addr(VirtAddr(0x2000)), Some(vc));
        assert_eq!(r.page_table().vc_of_addr(VirtAddr(0x8000)), None);
    }

    #[test]
    fn error_display() {
        assert_eq!(SysError::NoSuchVc.to_string(), "no such virtual cache");
    }
}
