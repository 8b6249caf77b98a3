//! `wp-tenant`: multi-tenant datacenter scenarios for the Whirlpool
//! reproduction.
//!
//! The paper evaluates Whirlpool on fixed multi-program mixes; a
//! datacenter deployment instead sees a *churning* tenant population
//! with per-tenant priorities and SLOs. This crate closes that gap with
//! three pieces:
//!
//! 1. **The `.wps` scenario format** ([`scenario`]) — a self-describing
//!    JSON document naming the tenant set (registry app or `trace:` URI,
//!    weight, optional SLO as a max miss-ratio or min normalized IPC)
//!    plus a deterministic, seeded arrival/departure trace. Every
//!    defect surfaces as a one-line typed error.
//! 2. **The scenario engine** ([`engine`]) — replays the churn schedule
//!    over the existing `Experiment` spine once per scheme: admitted
//!    tenants share the chip for an epoch, membership changes
//!    re-trigger classification and allocation, and per-tenant
//!    instruction/cycle/miss accounting accumulates across epochs. The
//!    report line and the tenant timeline are bit-identical whatever
//!    `WP_JOBS` or the daemon/CLI split, and pinned by a golden digest
//!    (`tests/golden/scenario.jsonl`).
//! 3. **Tenant metrics** ([`metrics`]) — weighted speedup, Jain
//!    fairness, and the SLO-violation time fraction, all returning
//!    typed errors (never `NaN`) on degenerate input.
//!
//! The Memshare-style greedy marginal-benefit baseline this engine
//! compares against lives in `wp-baselines`
//! (`SchemeKind::Memshare`), next to the other eight schemes.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod metrics;
pub mod scenario;

pub use engine::{
    run_scenario, validate_timeline, ScenarioOpts, ScenarioReport, SchemeOutcome, TenantOutcome,
};
pub use metrics::{jain_index, slo_violation_fraction, weighted_speedup, MetricError};
pub use scenario::{Scenario, SloTarget, TenantSpec, DEFAULT_WARMUP_INSTRS};
