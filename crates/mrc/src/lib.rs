//! Miss-rate-curve mathematics for the Whirlpool reproduction.
//!
//! This crate implements the analytical substrate that both Jigsaw's runtime
//! and WhirlTool's analyzer depend on:
//!
//! * [`MissCurve`] — misses-per-kilo-instruction (MPKI) as a function of
//!   cache capacity, plus the algebra defined on such curves.
//! * [`StampLru`] — the one stamp-ordered LRU store: the exact-capacity
//!   bank partitions of `wp-cache` and every stack profiler here are
//!   policies over it, each keeping only the parts it reads (an order log
//!   to evict the LRU line, a rank tree to answer stack distances).
//! * [`StackDistanceHistogram`] and [`MattsonStack`] — exact LRU
//!   stack-distance profiling, from which miss curves are derived.
//! * [`LineTable`] — the open-addressed line → stamp index under
//!   [`StampLru`], with a prefetchable first probe slot.
//! * [`SampledStack`] — the hash-sampled, depth-bounded stack that models
//!   Jigsaw/Whirlpool's GMON monitors: exact curves up to the capacity it
//!   reports, in `O(D)` memory.
//! * [`ShardsStack`] — SHARDS spatial-hash sampling over the Mattson
//!   machinery: ~constant-memory miss curves over whole traces at a small,
//!   bounded miss-ratio error, with fixed-rate and `s_max`-adaptive modes
//!   (see [`ShardsConfig`]).
//! * [`profile_streams`] — the one trace-profiling entry point: any set of
//!   a `.wpt` capture's streams, exact or sampled, in one file scan, each
//!   returned as a [`StreamProfile`] whose [`curve`](StreamProfile::curve)
//!   is the stream's miss curve.
//! * [`convex_hull`] — the lower convex hull of a miss or latency curve
//!   (Jigsaw partitions on hulls; convex performance is realizable via
//!   Talus-style partitioning within a VC, per Sec. 4.2 of the paper).
//! * [`combine_miss_curves`] — the Appendix-B *flow model* that estimates
//!   the miss curve of two pools sharing one cache.
//! * [`partition_capacity`] / [`partitioned_curve`] — convex-optimization
//!   capacity partitioning (the hill-climbing step WhirlTool and Jigsaw use).
//! * [`LatencyCurve`] — Jigsaw's end-to-end latency model: access rate ×
//!   access latency plus miss rate × miss penalty, with optional bypassing
//!   at zero capacity (Whirlpool's Sec. 3.2/3.3 extension).
//!
//! # Example
//!
//! ```
//! use wp_mrc::{MattsonStack, MissCurve};
//!
//! let mut stack = MattsonStack::new();
//! // A tiny loop over 4 lines, twice: second pass hits at distance 4.
//! for _ in 0..2 {
//!     for line in 0..4u64 {
//!         stack.access(line);
//!     }
//! }
//! let hist = stack.histogram();
//! // 4 cold misses and 4 reuses at stack distance 4 (need >= 4 lines to hit).
//! assert_eq!(hist.cold_misses(), 4);
//! let curve = MissCurve::from_histogram(&hist, 8_000, 1);
//! // With at least 4 lines of capacity, only the cold misses remain.
//! assert!(curve.mpki_at(4) <= curve.mpki_at(0));
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod combine;
mod curve;
pub mod fxmap;
mod histogram;
mod hull;
mod latency;
mod linetable;
mod mattson;
mod partition;
mod shards;
mod stamp;
mod trace;

pub use combine::combine_miss_curves;
pub use curve::MissCurve;
pub use fxmap::{FastMap, FastSet};
pub use histogram::{
    max_miss_ratio_error, max_miss_ratio_error_with_slack, StackDistanceHistogram,
};
pub use hull::{convex_hull, convex_hull_points, hull_to_points, HullPoint};
pub use latency::{AccessLatencyModel, LatencyCurve, UniformLatency};
pub use linetable::LineTable;
pub use mattson::{MattsonStack, SampledStack};
pub use partition::{
    partition_capacity, partition_capacity_hulled, partitioned_curve, PartitionOutcome,
};
pub use shards::{ShardsConfig, ShardsStack, SHARDS_MODULUS};
pub use stamp::StampLru;
pub use trace::{profile_streams, profile_streams_scanned, ProfileMode, StreamProfile};

/// A cache line is 64 bytes throughout the reproduction (Table 3).
pub const LINE_BYTES: u64 = 64;

/// Default capacity granule used when quantizing curves: 64 KB = 1024 lines.
///
/// Jigsaw partitions bank capacity at sub-bank granularity; 64 KB gives
/// 8 granules per 512 KB bank and 200 points across the 4-core, 12.5 MB LLC.
pub const DEFAULT_GRANULE_LINES: u64 = 1024;
