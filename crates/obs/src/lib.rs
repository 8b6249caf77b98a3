//! `wp-obs`: zero-dependency observability for the Whirlpool stack.
//!
//! Three layers, all std-only:
//!
//! 1. **The metrics registry** — a process-wide set of atomic counters
//!    ([`Counter`]), one log₂-bucketed histogram family ([`HistKind`]),
//!    and per-scheme access/miss tallies. Disabled (the default) every
//!    recording call is one relaxed atomic load and an early return;
//!    enabled it is a relaxed fetch-add. Enable with [`enable`] or
//!    `WP_OBS=1`. [`snapshot`] exports everything as one JSON object.
//! 2. **Phase spans** — wall-clock phase timing ([`Phase`]: capture, decode,
//!    warmup, measure, profile, classify). [`span()`] returns a guard
//!    that, on drop, adds the elapsed time to a process-wide *and* a
//!    thread-local accumulator; [`take_thread_phases`] drains the latter,
//!    which is how the sweep engine attributes phases to the cell that
//!    just ran on the worker thread.
//! 3. **Timelines** — Whirlpool-specific time series: [`PoolSample`]
//!    (per-pool occupancy and demand, sampled every N events by the
//!    simulation driver) and [`ReconfigEvent`] (one entry per runtime
//!    reallocation: cycle, per-pool old→new granules, and the curve
//!    signal that drove the decision). Both serialize one JSON object
//!    per line (JSONL), parseable by [`json::parse`].
//!
//! [`json`] is also the workspace's one JSON codec: one string escaper,
//! one float formatter and one parser, shared by the reports, the
//! daemon's wire frames and the `.wps` scenario reader.
//!
//! Nothing in this crate perturbs simulation state: every probe is
//! read-only with respect to the modelled system, so results are
//! bit-identical with observability on or off — the invariant
//! `tests/obs_determinism.rs` locks down.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
mod registry;
mod span;
mod timeline;

pub use registry::{
    add, enable, enabled, observe, record_max, record_scheme, reset, set_enabled, snapshot,
    Counter, HistKind, Snapshot,
};
pub use span::{span, take_thread_phases, Phase, PhaseTotals, Span};
pub use timeline::{
    ObsConfig, PoolChange, PoolOcc, PoolSample, ReconfigEvent, TenantEvent, TenantEventKind,
};
