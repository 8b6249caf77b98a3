//! Cache structures for the Whirlpool reproduction.
//!
//! This crate provides the hardware-ish building blocks the simulator
//! composes into memory hierarchies:
//!
//! * [`LruCache`] — an exact-capacity LRU line store, the model for one
//!   pool's partition of an LLC bank (idealized Vantage partitioning).
//!   It is a capacity over [`wp_mrc::StampLru`], the one stamp-ordered
//!   LRU store it shares with the monitors and profilers: each line maps
//!   to the stamp of its last access, the LRU line is the lowest live
//!   stamp, and stamps are compacted to ranks as they grow.
//! * [`SetAssocCache`] — a set-associative cache with pluggable
//!   [`ReplacementPolicy`] (LRU, or DRRIP with set dueling), used for
//!   the S-NUCA / IdealSPD baselines.
//! * [`PartitionedCache`] — a capacity-partitioned cache with per-partition
//!   quotas and LRU within each quota; the model of a Jigsaw bank shared by
//!   several virtual caches.
//! * [`UtilityMonitor`] — the GMON model: a sampled stack-distance monitor
//!   that yields per-interval [`wp_mrc::MissCurve`]s with EWMA ageing.
//!
//! # The batched NUCA access path
//!
//! A Jigsaw/Whirlpool access probes three hash-indexed structures: the
//! VC's monitor stack (sampled lines only), then the LRU partition of the
//! bank its VTB picks. Spread over 25 banks × every VC and one monitor
//! per VC, each probe is a host cache miss. [`LruCache`] and the monitor
//! stack are therefore both a [`wp_mrc::StampLru`], indexed by a
//! [`wp_mrc::LineTable`] whose lookup starts at a slot computable before
//! the access, and ordered by access stamp, so a hit touches the table
//! slot, one bit and the tail of an append-only log rather than
//! linked-list neighbours scattered over the host's memory. The NUCA
//! runtime resolves a quantum's VCs up front and, while the simulator's
//! access loop serves event `i`, hints event `i + 16`'s slots through
//! [`UtilityMonitor::prefetch`] and [`PartitionedCache::prefetch`], as
//! Memshare does for its one partitioned cache; the S-NUCA banks do the
//! same with [`SetAssocCache::prefetch`]. All of
//! them bottom out in [`prefetch_read`], the crate's only `unsafe`.
//!
//! # The S-NUCA probe
//!
//! [`SetAssocCache`] maps a line to a set with a mask whenever the set
//! count is a power of two (every LLC bank and private cache here), and
//! compares a 16-way set's tags as one fixed-width array, which compiles
//! to straight-line SIMD compares. [`LruPolicy`] finds a way's place in
//! its set's nibble-packed recency order with one SWAR zero-nibble test.
//!
//! # Example
//!
//! ```
//! use wp_cache::{AccessOutcome, LruCache};
//!
//! let mut c = LruCache::new(2);
//! assert!(matches!(c.access(1), AccessOutcome::Miss { evicted: None }));
//! assert!(matches!(c.access(2), AccessOutcome::Miss { evicted: None }));
//! assert!(matches!(c.access(1), AccessOutcome::Hit));
//! // 3 evicts 2 (LRU), not 1.
//! assert!(matches!(c.access(3), AccessOutcome::Miss { evicted: Some(2) }));
//! ```
// `deny` rather than `forbid`: `prefetch` scopes a single allow around
// the `_mm_prefetch` intrinsic (a pure hint — no memory is dereferenced).
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod lru;
mod monitor;
mod partitioned;
mod policy;
mod prefetch;
mod setassoc;

pub use lru::{AccessOutcome, LruCache};
pub use monitor::{MonitorConfig, UtilityMonitor};
pub use partitioned::PartitionedCache;
pub use policy::{DrripPolicy, LruPolicy, ReplacementPolicy};
pub use prefetch::{advise_hugepages, prefetch_read};
pub use setassoc::{CacheStats, SetAssocCache};
