//! The process-wide metrics registry.
//!
//! All storage is static: a fixed array of relaxed atomic counters, one
//! log₂-bucketed histogram family, and a mutex-guarded per-scheme tally.
//! The registry starts disabled (unless `WP_OBS=1` is set at first use)
//! and every recording call checks one relaxed atomic bool first, so the
//! disabled cost is an inlined load + branch.
//!
//! Hot-path discipline: nothing in the simulator records per *event*;
//! producers record per chunk, per batch, per quantum, or per run, which
//! keeps the enabled overhead on the batched warm sweep well under the
//! 2% budget.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::json::quote;

/// Every counter the registry tracks. The enum is the schema: adding a
/// variant adds a field to [`snapshot`] output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
#[non_exhaustive]
pub enum Counter {
    /// Compressed trace bytes decoded by the chunk decoder.
    TraceBytesDecoded,
    /// Chunks decoded (either read path).
    TraceChunksDecoded,
    /// Foreign-stream chunks frame-walked (not decoded) by `follow`.
    FollowChunksSkipped,
    /// Times the simulating thread blocked waiting on the prefetch
    /// decode thread (the lookahead failed to stay ahead).
    PrefetchStalls,
    /// Prefetch decode threads that died by panic.
    PrefetchPanics,
    /// Named worker threads spawned (`wp-prefetch`, `wp-sweep-<i>`).
    ThreadsSpawned,
    /// Lines evicted by SHARDS `s_max` threshold adaptation.
    ShardsEvictions,
    /// Utility-monitor interval rollovers (one per VC per reconfig).
    MonitorRollovers,
    /// Scheme reconfigurations observed by timeline probes.
    Reconfigurations,
    /// Pool-occupancy samples taken by timeline probes.
    PoolSamplesTaken,
    /// Sweep cells completed.
    SweepCellsCompleted,
    /// Sweep trace-cache hits (capture reused).
    TraceCacheHits,
    /// Sweep trace-cache misses (capture recorded).
    TraceCacheMisses,
    /// Steals performed by the task-parallel scheduler.
    PawsSteals,
    /// Tasks executed by the task-parallel scheduler.
    PawsTasks,
    /// Requests the experiment service accepted onto its job queue.
    ServeRequestsAccepted,
    /// Service jobs that ran to completion.
    ServeRequestsCompleted,
    /// Service jobs cancelled (by verb, disconnect, or shutdown drain).
    ServeRequestsCancelled,
    /// High-water mark of the service job queue depth (a gauge recorded
    /// via [`record_max`]).
    ServeQueueHighWater,
    /// Memoized MRC curve-store hits in the service store.
    CurveStoreHits,
    /// MRC curves the service store had to compute.
    CurveStoreMisses,
    /// WhirlTool classification runs answered from the harness memo.
    ClassifyMemoHits,
    /// WhirlTool classification runs that had to profile + cluster.
    ClassifyMemoMisses,
    /// Tenant arrivals admitted by the scenario engine.
    TenantArrivals,
    /// Tenant departures retired by the scenario engine.
    TenantDepartures,
    /// Scenario epochs simulated (one per non-empty epoch per scheme).
    TenantEpochsRun,
    /// Tenant-epochs that violated their SLO (waiting epochs included).
    TenantSloViolations,
    /// Faults fired by the `wp-fault` injection layer (one per shot).
    FaultsInjected,
    /// Service jobs whose worker panicked (isolated by `catch_unwind`).
    ServeWorkerPanics,
    /// Service jobs cancelled by the per-job wall-clock timeout.
    ServeJobTimeouts,
    /// Partial trailing `results.jsonl` records truncated at startup.
    ServeLogTornTails,
    /// Corrupt trace-cache entries evicted (and re-captured) by sweeps.
    TraceCacheEvictions,
    /// Client connect attempts retried against a slow-to-bind daemon.
    ClientConnectRetries,
}

impl Counter {
    /// All counters, in snapshot order.
    pub const ALL: [Counter; 33] = [
        Counter::TraceBytesDecoded,
        Counter::TraceChunksDecoded,
        Counter::FollowChunksSkipped,
        Counter::PrefetchStalls,
        Counter::PrefetchPanics,
        Counter::ThreadsSpawned,
        Counter::ShardsEvictions,
        Counter::MonitorRollovers,
        Counter::Reconfigurations,
        Counter::PoolSamplesTaken,
        Counter::SweepCellsCompleted,
        Counter::TraceCacheHits,
        Counter::TraceCacheMisses,
        Counter::PawsSteals,
        Counter::PawsTasks,
        Counter::ServeRequestsAccepted,
        Counter::ServeRequestsCompleted,
        Counter::ServeRequestsCancelled,
        Counter::ServeQueueHighWater,
        Counter::CurveStoreHits,
        Counter::CurveStoreMisses,
        Counter::ClassifyMemoHits,
        Counter::ClassifyMemoMisses,
        Counter::TenantArrivals,
        Counter::TenantDepartures,
        Counter::TenantEpochsRun,
        Counter::TenantSloViolations,
        Counter::FaultsInjected,
        Counter::ServeWorkerPanics,
        Counter::ServeJobTimeouts,
        Counter::ServeLogTornTails,
        Counter::TraceCacheEvictions,
        Counter::ClientConnectRetries,
    ];

    /// The snake_case name used in JSON output.
    pub fn name(self) -> &'static str {
        match self {
            Counter::TraceBytesDecoded => "trace_bytes_decoded",
            Counter::TraceChunksDecoded => "trace_chunks_decoded",
            Counter::FollowChunksSkipped => "follow_chunks_skipped",
            Counter::PrefetchStalls => "prefetch_stalls",
            Counter::PrefetchPanics => "prefetch_panics",
            Counter::ThreadsSpawned => "threads_spawned",
            Counter::ShardsEvictions => "shards_evictions",
            Counter::MonitorRollovers => "monitor_rollovers",
            Counter::Reconfigurations => "reconfigurations",
            Counter::PoolSamplesTaken => "pool_samples_taken",
            Counter::SweepCellsCompleted => "sweep_cells_completed",
            Counter::TraceCacheHits => "trace_cache_hits",
            Counter::TraceCacheMisses => "trace_cache_misses",
            Counter::PawsSteals => "paws_steals",
            Counter::PawsTasks => "paws_tasks",
            Counter::ServeRequestsAccepted => "serve_requests_accepted",
            Counter::ServeRequestsCompleted => "serve_requests_completed",
            Counter::ServeRequestsCancelled => "serve_requests_cancelled",
            Counter::ServeQueueHighWater => "serve_queue_high_water",
            Counter::CurveStoreHits => "curve_store_hits",
            Counter::CurveStoreMisses => "curve_store_misses",
            Counter::ClassifyMemoHits => "classify_memo_hits",
            Counter::ClassifyMemoMisses => "classify_memo_misses",
            Counter::TenantArrivals => "tenant_arrivals",
            Counter::TenantDepartures => "tenant_departures",
            Counter::TenantEpochsRun => "tenant_epochs_run",
            Counter::TenantSloViolations => "tenant_slo_violations",
            Counter::FaultsInjected => "faults_injected",
            Counter::ServeWorkerPanics => "serve_worker_panics",
            Counter::ServeJobTimeouts => "serve_job_timeouts",
            Counter::ServeLogTornTails => "serve_log_torn_tails",
            Counter::TraceCacheEvictions => "trace_cache_evictions",
            Counter::ClientConnectRetries => "client_connect_retries",
        }
    }
}

/// Histogram families. Each is 17 log₂ buckets: bucket `b` counts values
/// `v` with `ceil(log2(v+1)) == b`, i.e. bucket 0 holds zeros and bucket
/// 16 holds everything ≥ 2¹⁵+1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
#[non_exhaustive]
pub enum HistKind {
    /// Events produced per `fill_batch` call on the replay path.
    BatchFill,
}

impl HistKind {
    /// All histogram families, in snapshot order.
    pub const ALL: [HistKind; 1] = [HistKind::BatchFill];

    /// The snake_case name used in JSON output.
    pub fn name(self) -> &'static str {
        match self {
            HistKind::BatchFill => "batch_fill",
        }
    }
}

const N_COUNTERS: usize = Counter::ALL.len();
const N_HISTS: usize = HistKind::ALL.len();
const HIST_BUCKETS: usize = 17;

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);

static COUNTERS: [AtomicU64; N_COUNTERS] = [ZERO; N_COUNTERS];
static HISTS: [[AtomicU64; HIST_BUCKETS]; N_HISTS] = [[ZERO; HIST_BUCKETS]; N_HISTS];
/// Per-scheme `(accesses, misses)` tallies, recorded once per run.
static SCHEMES: Mutex<Vec<(String, u64, u64)>> = Mutex::new(Vec::new());

/// Whether the registry records. `INITED` guards the one-time `WP_OBS`
/// read; explicit [`set_enabled`] calls override the environment.
static STATE: AtomicBool = AtomicBool::new(false);
static INITED: AtomicBool = AtomicBool::new(false);

fn init_from_env() {
    if !INITED.swap(true, Ordering::Relaxed) {
        let on = matches!(std::env::var("WP_OBS").as_deref(), Ok("1") | Ok("on"));
        if on {
            STATE.store(true, Ordering::Relaxed);
        }
    }
}

/// Whether the registry is recording. The first call reads `WP_OBS`.
#[inline]
pub fn enabled() -> bool {
    if !INITED.load(Ordering::Relaxed) {
        init_from_env();
    }
    STATE.load(Ordering::Relaxed)
}

/// Turns recording on.
pub fn enable() {
    set_enabled(true);
}

/// Turns recording on or off explicitly (overrides `WP_OBS`).
pub fn set_enabled(on: bool) {
    INITED.store(true, Ordering::Relaxed);
    STATE.store(on, Ordering::Relaxed);
}

/// Adds `n` to a counter. A no-op while the registry is disabled.
#[inline]
pub fn add(counter: Counter, n: u64) {
    if enabled() {
        COUNTERS[counter as usize].fetch_add(n, Ordering::Relaxed);
    }
}

/// Raises a gauge-style counter to at least `value` (relaxed
/// `fetch_max`) — used for high-water marks like the service queue
/// depth. A no-op while the registry is disabled.
#[inline]
pub fn record_max(counter: Counter, value: u64) {
    if enabled() {
        COUNTERS[counter as usize].fetch_max(value, Ordering::Relaxed);
    }
}

/// Records `value` into a histogram family. A no-op while disabled.
#[inline]
pub fn observe(hist: HistKind, value: u64) {
    if enabled() {
        let bucket = (64 - value.leading_zeros() as usize).min(HIST_BUCKETS - 1);
        HISTS[hist as usize][bucket].fetch_add(1, Ordering::Relaxed);
    }
}

/// Records a finished run's per-scheme access/miss totals. A no-op while
/// disabled.
pub fn record_scheme(name: &str, accesses: u64, misses: u64) {
    if !enabled() {
        return;
    }
    let mut schemes = SCHEMES.lock().expect("scheme tally poisoned");
    match schemes.iter_mut().find(|(n, _, _)| n == name) {
        Some(row) => {
            row.1 += accesses;
            row.2 += misses;
        }
        None => schemes.push((name.to_string(), accesses, misses)),
    }
}

/// Zeroes every counter, histogram, scheme tally, and phase accumulator.
/// (Recording state is untouched.)
pub fn reset() {
    for c in &COUNTERS {
        c.store(0, Ordering::Relaxed);
    }
    for h in &HISTS {
        for b in h {
            b.store(0, Ordering::Relaxed);
        }
    }
    SCHEMES.lock().expect("scheme tally poisoned").clear();
    crate::span::reset_global_phases();
}

/// A point-in-time copy of the whole registry.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// `(name, value)` for every [`Counter`].
    pub counters: Vec<(&'static str, u64)>,
    /// `(name, per-bucket counts)` for every [`HistKind`].
    pub histograms: Vec<(&'static str, Vec<u64>)>,
    /// `(scheme, accesses, misses)` per recorded scheme.
    pub schemes: Vec<(String, u64, u64)>,
    /// `(phase, seconds)` process-wide phase totals.
    pub phases: Vec<(&'static str, f64)>,
}

impl Snapshot {
    /// Serializes the snapshot as one JSON object (single line).
    pub fn to_json(&self) -> String {
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(n, v)| format!("{}:{v}", quote(n)))
            .collect();
        let hists: Vec<String> = self
            .histograms
            .iter()
            .map(|(n, buckets)| {
                let vals: Vec<String> = buckets.iter().map(|b| b.to_string()).collect();
                format!("{}:[{}]", quote(n), vals.join(","))
            })
            .collect();
        let schemes: Vec<String> = self
            .schemes
            .iter()
            .map(|(n, a, m)| format!("{}:{{\"accesses\":{a},\"misses\":{m}}}", quote(n)))
            .collect();
        let phases: Vec<String> = self
            .phases
            .iter()
            .map(|(n, s)| format!("{}:{}", quote(n), crate::json::fmt_f64(*s)))
            .collect();
        format!(
            "{{\"counters\":{{{}}},\"histograms\":{{{}}},\"schemes\":{{{}}},\"phases\":{{{}}}}}",
            counters.join(","),
            hists.join(","),
            schemes.join(","),
            phases.join(",")
        )
    }
}

/// Copies the registry's current contents.
pub fn snapshot() -> Snapshot {
    Snapshot {
        counters: Counter::ALL
            .iter()
            .map(|&c| (c.name(), COUNTERS[c as usize].load(Ordering::Relaxed)))
            .collect(),
        histograms: HistKind::ALL
            .iter()
            .map(|&h| {
                (
                    h.name(),
                    HISTS[h as usize]
                        .iter()
                        .map(|b| b.load(Ordering::Relaxed))
                        .collect(),
                )
            })
            .collect(),
        schemes: SCHEMES.lock().expect("scheme tally poisoned").clone(),
        phases: crate::span::global_phase_totals(),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    // The registry is process-global, so these tests share state with
    // each other and with any concurrently running test that enables
    // recording. Each asserts on *deltas* of counters it owns, and every
    // test that toggles the flag holds `flag_lock` while it does, so no
    // other test can switch recording back on between its toggle and its
    // assertion.

    /// Serializes the crate's tests that toggle the global enabled flag.
    pub(crate) fn flag_lock() -> std::sync::MutexGuard<'static, ()> {
        static FLAG: Mutex<()> = Mutex::new(());
        // A test that panicked while holding the lock leaves nothing to
        // repair: the next holder sets the flag it needs.
        FLAG.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disabled_adds_are_dropped() {
        let _flag = flag_lock();
        set_enabled(false);
        let before = snapshot()
            .counters
            .iter()
            .find(|(n, _)| *n == "paws_steals")
            .map(|&(_, v)| v)
            .unwrap();
        add(Counter::PawsSteals, 7);
        let after = snapshot()
            .counters
            .iter()
            .find(|(n, _)| *n == "paws_steals")
            .map(|&(_, v)| v)
            .unwrap();
        assert_eq!(before, after);
    }

    #[test]
    fn record_max_is_a_high_water_mark() {
        let _flag = flag_lock();
        set_enabled(true);
        record_max(Counter::ServeQueueHighWater, 5);
        record_max(Counter::ServeQueueHighWater, 3);
        let v = snapshot()
            .counters
            .iter()
            .find(|(n, _)| *n == "serve_queue_high_water")
            .map(|&(_, v)| v)
            .unwrap();
        set_enabled(false);
        assert!(v >= 5, "high-water keeps the max, got {v}");
    }

    #[test]
    fn enabled_adds_accumulate_and_snapshot_is_json() {
        let _flag = flag_lock();
        set_enabled(true);
        add(Counter::PawsTasks, 3);
        add(Counter::PawsTasks, 4);
        observe(HistKind::BatchFill, 0);
        observe(HistKind::BatchFill, 256);
        record_scheme("TestScheme", 100, 10);
        let snap = snapshot();
        set_enabled(false);
        let tasks = snap
            .counters
            .iter()
            .find(|(n, _)| *n == "paws_tasks")
            .map(|&(_, v)| v)
            .unwrap();
        assert!(tasks >= 7);
        let (_, buckets) = &snap.histograms[0];
        assert_eq!(buckets.len(), 17);
        assert!(buckets[0] >= 1, "zero lands in bucket 0");
        assert!(buckets[9] >= 1, "256 lands in bucket 9");
        let json = snap.to_json();
        assert!(json.contains("\"paws_tasks\""));
        assert!(json.contains("\"TestScheme\":{\"accesses\""));
        assert!(json.starts_with('{') && json.ends_with('}'));
    }
}
