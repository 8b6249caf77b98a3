//! The NUCA multicore simulator substrate.
//!
//! This crate stands in for the paper's zsim testbed (Appendix A, Table 3):
//! a model-driven simulator of 4- or 16-core chips with private L1/L2
//! caches, a distributed NUCA LLC reached over a mesh NoC, and one or more
//! memory controllers. It deliberately adopts the paper's own additive
//! latency model (Sec. 2.4 footnote 1): core cycles = instructions ×
//! base CPI + data-stall cycles, where each LLC/memory access contributes
//! its round-trip latency.
//!
//! The LLC itself is pluggable through the [`LlcScheme`] trait — S-NUCA,
//! IdealSPD, Awasthi (in `wp-baselines`), Jigsaw (`wp-jigsaw`) and Whirlpool
//! (`whirlpool`) all implement it — so every scheme runs on an identical
//! substrate with identical energy accounting, as in the paper's
//! methodology.
//!
//! Energy is *data-movement (uncore) energy*: NoC flit-hops, LLC bank
//! accesses, and DRAM accesses ([`EnergyMeter`]), the three components the
//! paper's figures break out.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod driver;
mod energy;
mod hierarchy;
mod memory;
mod replay;
mod scheme;
mod stats;
mod uncore;

pub use config::SystemConfig;
pub use driver::{CoreRunner, MultiCoreSim, RunSummary, SimConfig};
pub use energy::{EnergyBreakdown, EnergyMeter, EnergyParams};
pub use hierarchy::{PrivateHierarchy, PrivateLookup};
pub use memory::MemoryChannels;
pub use replay::{trace_bundle, trace_pools, TraceWorkload};
pub use scheme::{
    AccessContext, BatchClock, LlcOutcome, LlcResponse, LlcScheme, PoolDescriptor, TraceEvent,
    Workload, WorkloadBundle,
};
// The batch type workloads and schemes exchange, re-exported so scheme
// crates need not name `wp-trace` directly.
pub use stats::{json_string, CoreStats};
pub use uncore::Uncore;
pub use wp_trace::EventBatch;
