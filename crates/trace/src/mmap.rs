//! Whole-file byte access for zero-copy decode.
//!
//! [`TraceData`] presents a trace as one contiguous `&[u8]`. On 64-bit
//! Linux and macOS it memory-maps the file (read-only, private), so chunk
//! payloads are decoded straight out of the page cache without ever being
//! copied into a heap buffer; everywhere else — and for non-seekable
//! inputs via [`TraceData::from_vec`] — it falls back to reading the file
//! into memory. Either way the bytes are immutable and shareable across
//! threads, which is what lets the prefetch decoder and the simulator look
//! at the same mapping concurrently.
//!
//! # Sharing one image
//!
//! Each [`TraceData::open`] maps the file anew. A caller that reads
//! several streams of one file at once (a `replay --mix`) opens it once
//! and hands each stream's reader a clone of the `Arc`
//! ([`BatchReader::new`](crate::BatchReader::new) and
//! [`follow`](crate::BatchReader::follow)). The page cache is shared
//! between mappings of a file anyway, so this saves no physical memory;
//! what falls is the resident set the OS reports for the process (each
//! mapping's touched pages count once per mapping in `ru_maxrss`) and the
//! page faults taken per mapping.

use std::io;
use std::path::Path;

/// An immutable, contiguous view of a whole trace file.
#[derive(Debug)]
pub struct TraceData(Repr);

#[derive(Debug)]
enum Repr {
    Heap(Vec<u8>),
    #[cfg(all(
        any(target_os = "linux", target_os = "macos"),
        target_pointer_width = "64"
    ))]
    Mapped(map::Mapping),
}

impl TraceData {
    /// Opens `path`, memory-mapping it where supported and falling back to
    /// a plain read (empty files, exotic platforms, mmap failure).
    pub fn open(path: &Path) -> io::Result<Self> {
        #[cfg(all(
            any(target_os = "linux", target_os = "macos"),
            target_pointer_width = "64"
        ))]
        {
            let file = std::fs::File::open(path)?;
            let len = file.metadata()?.len();
            if len > 0 {
                if let Some(m) = map::Mapping::new(&file, len as usize) {
                    return Ok(Self(Repr::Mapped(m)));
                }
            }
        }
        Ok(Self(Repr::Heap(std::fs::read(path)?)))
    }

    /// Wraps bytes already in memory — the path for non-seekable inputs
    /// (pipes, network streams) that were slurped elsewhere.
    pub fn from_vec(bytes: Vec<u8>) -> Self {
        Self(Repr::Heap(bytes))
    }

    /// The file's bytes.
    pub fn bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Heap(v) => v,
            #[cfg(all(
                any(target_os = "linux", target_os = "macos"),
                target_pointer_width = "64"
            ))]
            Repr::Mapped(m) => m.bytes(),
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.bytes().len()
    }

    /// True for a zero-byte file.
    pub fn is_empty(&self) -> bool {
        self.bytes().is_empty()
    }

    /// Whether this view is an actual memory mapping (false on the heap
    /// fallback) — observability for tests and `trace_tool info`.
    pub fn is_mapped(&self) -> bool {
        match &self.0 {
            Repr::Heap(_) => false,
            #[cfg(all(
                any(target_os = "linux", target_os = "macos"),
                target_pointer_width = "64"
            ))]
            Repr::Mapped(_) => true,
        }
    }
}

#[cfg(all(
    any(target_os = "linux", target_os = "macos"),
    target_pointer_width = "64"
))]
mod map {
    //! The one unsafe corner of the crate: a minimal read-only `mmap`.
    //!
    //! std already links the platform C library, so the two calls are
    //! declared directly instead of pulling in a bindings crate. The
    //! mapping is `PROT_READ`/`MAP_PRIVATE` over the whole file: nothing
    //! can write through it, and a private mapping of an immutable length
    //! is safe to alias from any thread, which justifies the `Send`/`Sync`
    //! impls. (A concurrent truncation of the underlying file could still
    //! fault — the same contract every mmap-based reader accepts.)
    #![allow(unsafe_code)]

    use std::fs::File;
    use std::os::raw::{c_int, c_void};
    use std::os::unix::io::AsRawFd;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    const PROT_READ: c_int = 1;
    const MAP_PRIVATE: c_int = 2;

    pub(super) struct Mapping {
        ptr: *mut c_void,
        len: usize,
    }

    unsafe impl Send for Mapping {}
    unsafe impl Sync for Mapping {}

    impl std::fmt::Debug for Mapping {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("Mapping").field("len", &self.len).finish()
        }
    }

    impl Mapping {
        /// Maps the first `len` bytes of `file`; `None` if the kernel
        /// refuses (the caller falls back to a heap read).
        pub(super) fn new(file: &File, len: usize) -> Option<Self> {
            if len == 0 {
                return None;
            }
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr.is_null() || ptr as isize == -1 {
                None
            } else {
                Some(Self { ptr, len })
            }
        }

        pub(super) fn bytes(&self) -> &[u8] {
            unsafe { std::slice::from_raw_parts(self.ptr.cast::<u8>(), self.len) }
        }
    }

    impl Drop for Mapping {
        fn drop(&mut self) {
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("wp-trace-mmap-{}-{name}", std::process::id()))
    }

    #[test]
    fn open_sees_file_bytes() {
        let path = temp("bytes.bin");
        std::fs::write(&path, b"hello trace").unwrap();
        let d = TraceData::open(&path).unwrap();
        assert_eq!(d.bytes(), b"hello trace");
        assert_eq!(d.len(), 11);
        assert!(!d.is_empty());
        #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
        assert!(d.is_mapped(), "linux should take the mmap path");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_file_uses_heap_fallback() {
        let path = temp("empty.bin");
        std::fs::write(&path, b"").unwrap();
        let d = TraceData::open(&path).unwrap();
        assert!(d.is_empty());
        assert!(!d.is_mapped());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn from_vec_is_zero_copy_of_the_vec() {
        let d = TraceData::from_vec(vec![1, 2, 3]);
        assert_eq!(d.bytes(), &[1, 2, 3]);
        assert!(!d.is_mapped());
    }

    #[test]
    fn missing_file_errors() {
        assert!(TraceData::open(&temp("nope.bin")).is_err());
    }

    #[test]
    fn mapping_is_shareable_across_threads() {
        let path = temp("shared.bin");
        std::fs::write(&path, vec![7u8; 4096]).unwrap();
        let d = std::sync::Arc::new(TraceData::open(&path).unwrap());
        let d2 = d.clone();
        let h = std::thread::spawn(move || d2.bytes().iter().map(|&b| u64::from(b)).sum::<u64>());
        assert_eq!(h.join().unwrap(), 7 * 4096);
        assert_eq!(d.len(), 4096);
        std::fs::remove_file(&path).unwrap();
    }
}
