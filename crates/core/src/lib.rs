//! **Whirlpool**: static data classification driving dynamic NUCA cache
//! management — the primary contribution of Mukkara, Beckmann & Sanchez,
//! ASPLOS 2016.
//!
//! Whirlpool statically classifies program data into *memory pools* (e.g.
//! one per major data structure) and lets dynamic policies tune the cache
//! to each pool: every pool gets its own virtual cache (VC), monitored at
//! run time and re-sized/re-placed every reconfiguration interval by the
//! Jigsaw runtime. Pools do not encode policies — they make it easy for the
//! hardware to *find* the right policy (Sec. 1–2).
//!
//! This crate provides:
//!
//! * [`PoolAllocator`] — the Sec. 3.1 programmer API: `pool_create`,
//!   `pool_malloc` (and friends), built on the `wp-mem` heap, emitting the
//!   [`wp_sim::PoolDescriptor`]s the hardware consumes.
//! * [`VcRegistry`] — the Sec. 3.2 system-call layer: `sys_vc_alloc`,
//!   `sys_vc_free`, `sys_vc_tag`, and tagged `sys_mmap`, with the safety
//!   checks the paper requires (a process may only tag its own VCs).
//! * [`manual`] — the Table 2 manual classifications (pools, data
//!   structures, and lines-of-code changed for the 12 hand-ported apps).
//!
//! The LLC scheme itself has no type here. "Whirlpool extends Jigsaw to
//! support static classification of data into pools by building VCs for
//! each pool. We make small modifications to Jigsaw … but do not modify
//! its core hardware mechanisms or software reconfiguration runtime"
//! (Sec. 2.4), so Whirlpool is the
//! shared [`wp_jigsaw::NucaRuntime`] configured with
//! [`per_pool_vcs`](wp_jigsaw::NucaConfig::per_pool_vcs) and VC bypassing
//! on.
//!
//! # Quickstart
//!
//! ```
//! use whirlpool::PoolAllocator;
//! use wp_jigsaw::{NucaConfig, NucaRuntime};
//! use wp_sim::{LlcScheme, SystemConfig};
//!
//! // Classify data into pools with the allocator...
//! let mut alloc = PoolAllocator::new();
//! let points = alloc.pool_create("points");
//! let _buf = alloc.pool_malloc(512 * 1024, points);
//! let pools = alloc.descriptors();
//! assert_eq!(pools.len(), 1);
//!
//! // ...and hand the classification to the Whirlpool-managed LLC: the
//! // NUCA runtime with a VC per pool, plus bypassing.
//! let sys = SystemConfig::four_core();
//! let mut scheme = NucaRuntime::new(sys.clone(), NucaConfig::for_system(&sys, true, true), "Whirlpool");
//! scheme.attach_core(wp_noc::CoreId(0), &pools);
//! assert_eq!(scheme.vcs().len(), 3); // process + thread + "points"
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod api;
pub mod manual;
#[cfg(test)]
mod scheme;
mod syscalls;

pub use api::PoolAllocator;
pub use syscalls::{SysError, VcRegistry};
