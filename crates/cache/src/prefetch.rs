//! Software prefetch hint, for batched scheme loops.
//!
//! Bank tag/replacement arrays are tens of megabytes and accessed in a
//! hash-scattered order, so simulating one LLC access is latency-bound on
//! the *host's* cache hierarchy. A scheme that can see a batch of upcoming
//! events hides that latency by hinting the tag lines of event `i + k`
//! while serving event `i` — see the `LlcScheme::prefetch` hook in
//! `wp-sim`. S-NUCA hints its set-associative banks' tag sets
//! ([`SetAssocCache::prefetch`](crate::SetAssocCache::prefetch)); the
//! Jigsaw/Whirlpool runtime and Memshare hint each upcoming access's
//! monitor-stack slot and partition index slot
//! ([`UtilityMonitor::prefetch`](crate::UtilityMonitor::prefetch),
//! [`PartitionedCache::prefetch`](crate::PartitionedCache::prefetch)),
//! both first probe slots of a [`wp_mrc::LineTable`].

/// Hints the host CPU to pull the cache line containing `r` toward L1.
///
/// Purely a performance hint: no memory is read or written, and the
/// function is a no-op on architectures without a prefetch intrinsic.
#[inline(always)]
pub fn prefetch_read<T: ?Sized>(r: &T) {
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    // SAFETY: `_mm_prefetch` only hints the address to the hardware
    // prefetcher; it performs no access and has no side effects on
    // program state, so any pointer value is sound to pass.
    unsafe {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(r as *const T as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = r;
}

/// Advises the kernel to back `v`'s buffer with transparent huge pages.
///
/// Bank tag/stamp arrays total tens of MB probed in hash-scattered order;
/// on 4 KB pages that overwhelms the host TLB, and x86 drops software
/// prefetches that miss the DTLB — defeating [`prefetch_read`] exactly
/// where it matters. Call this right after reserving a large buffer,
/// *before* first touch, so the pages fault in huge.
///
/// Purely a performance hint: contents and semantics are unaffected, any
/// error is ignored, and the function is a no-op off Linux.
pub fn advise_hugepages<T>(v: &mut Vec<T>) {
    #[cfg(target_os = "linux")]
    #[allow(unsafe_code)]
    {
        // Whole 4 KB pages strictly inside the buffer (madvise wants an
        // aligned start; a non-4K-page host just returns EINVAL, ignored).
        const PAGE: usize = 4096;
        const MADV_HUGEPAGE: i32 = 14;
        extern "C" {
            fn madvise(addr: *mut core::ffi::c_void, len: usize, advice: i32) -> i32;
        }
        let start = v.as_mut_ptr() as usize;
        let end = start + v.capacity() * core::mem::size_of::<T>();
        let a_start = (start + PAGE - 1) & !(PAGE - 1);
        let a_end = end & !(PAGE - 1);
        if a_end > a_start {
            // SAFETY: the range lies within an allocation this Vec owns,
            // and MADV_HUGEPAGE only tunes page-size policy — it cannot
            // alter or free the memory.
            unsafe {
                madvise(
                    a_start as *mut core::ffi::c_void,
                    a_end - a_start,
                    MADV_HUGEPAGE,
                );
            }
        }
    }
    #[cfg(not(target_os = "linux"))]
    let _ = v;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advised_vec_works_normally() {
        let mut v: Vec<u64> = Vec::with_capacity(1 << 16);
        advise_hugepages(&mut v);
        v.resize(1 << 16, 7);
        assert!(v.iter().all(|&x| x == 7));
        // Tiny and empty buffers are fine too (nothing to advise).
        let mut small: Vec<u8> = Vec::with_capacity(8);
        advise_hugepages(&mut small);
        let mut empty: Vec<u8> = Vec::new();
        advise_hugepages(&mut empty);
        assert_eq!(empty.len(), 0);
    }

    #[test]
    fn prefetch_is_inert() {
        // Only observable property: it doesn't crash or alter data, at
        // any alignment.
        let data = [1u8; 256];
        for byte in &data {
            prefetch_read(byte);
        }
        let v = vec![42u64; 1024];
        prefetch_read(&v[1023]);
        assert_eq!(data[128], 1);
        assert_eq!(v[0], 42);
    }
}
