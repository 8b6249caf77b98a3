//! The parallel sweep engine: (scheme × app) grids over cached traces.
//!
//! The Fig. 16/21/22 sweeps used to re-generate every app's event stream
//! live for every scheme, making a full 31-app × 8-scheme pass strictly
//! serial and repeating identical work per cell. This module amortizes
//! that work the way the trace subsystem was built for:
//!
//! 1. **Capture once.** Each registry app is captured exactly once into a
//!    key-addressed `.wpt` cache (directory `WP_TRACE_CACHE`, default
//!    `target/wp-trace-cache`; key = app name + warmup + measure budgets,
//!    which fold in `RUN_SCALE`). The pulled event stream is independent
//!    of the scheme and classification, so one capture serves every cell.
//! 2. **Replay everywhere, in parallel.** Replay is read-only and the
//!    whole sim/scheme/workload stack is `Send`, so (scheme × app) cells
//!    fan out across a `WP_JOBS`-sized pool of `std::thread::scope`
//!    workers. Results are collected in spec order, so the output is
//!    bit-identical to a `WP_JOBS=1` run — parallelism is purely a
//!    wall-clock lever.
//!
//! Every cell runs through the shared [`Experiment`] builder: cached
//! single-app replays attach a pre-built bundle (cache stream + registry
//! pools), mixes use the mix placement. Multi-program mixes
//! ([`CellWork::Mix`]) have no scheme-independent per-core stream length,
//! so they run live — but still one mix per worker, which is where
//! Fig. 22's wall-clock goes.
//!
//! ```no_run
//! use wp_bench::sweep::{CellWork, SweepSpec};
//! use whirlpool_repro::harness::SchemeKind;
//!
//! let result = SweepSpec::grid(
//!     &[SchemeKind::SNucaLru, SchemeKind::Whirlpool],
//!     &["delaunay", "mcf"],
//! )
//! .run()
//! .unwrap();
//! println!("{}", result.to_json());
//! ```

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use whirlpool_repro::harness::{
    descriptors_for, run_budget, CancelToken, Classification, Experiment, HarnessError, SchemeKind,
};
use wp_sim::{RunSummary, TraceWorkload, WorkloadBundle};
use wp_workloads::{registry, AppModel};

use crate::measure_budget;
use crate::store::{capture_key, DirStore, TraceStore};

/// Whether the opt-in `WP_PROGRESS=1` stderr heartbeat is on. Off by
/// default: a sweep then writes nothing per cell, and stdout (the JSON
/// emission) is bit-identical either way.
fn progress_enabled() -> bool {
    matches!(std::env::var("WP_PROGRESS").as_deref(), Ok("1") | Ok("on"))
}

/// Worker-thread count: `WP_JOBS`, defaulting to every available core.
pub fn default_jobs() -> usize {
    std::env::var("WP_JOBS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
}

/// Trace-cache directory: `WP_TRACE_CACHE`, default `target/wp-trace-cache`.
pub fn default_cache_dir() -> PathBuf {
    std::env::var_os("WP_TRACE_CACHE")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/wp-trace-cache"))
}

/// What one sweep cell runs.
#[derive(Debug, Clone)]
pub enum CellWork {
    /// One app alone on core 0 of the 4-core chip, replayed from the
    /// trace cache (registry apps) or directly from a `trace:<path>` URI.
    Single {
        /// Registry name or `trace:<path>` URI.
        app: String,
        /// Classification handed to the scheme.
        classification: Classification,
    },
    /// A live multi-program mix (one app per core, fixed-work).
    Mix {
        /// One app per core (registry names or `trace:` URIs).
        apps: Vec<String>,
        /// Fixed-work measurement budget per core.
        instrs: u64,
        /// Run on the 16-core chip instead of the 4-core one.
        cores16: bool,
    },
}

impl CellWork {
    /// A [`CellWork::Single`] cell.
    pub fn single(app: &str, classification: Classification) -> Self {
        CellWork::Single {
            app: app.to_string(),
            classification,
        }
    }

    /// A [`CellWork::Mix`] cell.
    pub fn mix(apps: &[&str], instrs: u64, cores16: bool) -> Self {
        CellWork::Mix {
            apps: apps.iter().map(|a| a.to_string()).collect(),
            instrs,
            cores16,
        }
    }

    /// Short display label ("delaunay", "mcf+lbm+…").
    fn label(&self) -> String {
        match self {
            CellWork::Single { app, .. } => app.clone(),
            CellWork::Mix { apps, .. } => apps.join("+"),
        }
    }
}

/// One (scheme, workload) cell of a sweep.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// The scheme under evaluation.
    pub scheme: SchemeKind,
    /// The workload it runs.
    pub work: CellWork,
}

/// A sweep: an ordered list of cells plus engine knobs.
#[derive(Debug)]
pub struct SweepSpec {
    cells: Vec<SweepCell>,
    jobs: usize,
    cache_dir: PathBuf,
    warmup_override: Option<u64>,
    measure_override: Option<u64>,
    store: Option<Arc<dyn TraceStore>>,
    cancel: Option<CancelToken>,
}

impl Default for SweepSpec {
    fn default() -> Self {
        Self::new()
    }
}

impl SweepSpec {
    /// An empty sweep with environment-default jobs and cache directory.
    pub fn new() -> Self {
        Self {
            cells: Vec::new(),
            jobs: default_jobs(),
            cache_dir: default_cache_dir(),
            warmup_override: None,
            measure_override: None,
            store: None,
            cancel: None,
        }
    }

    /// The full (scheme × app) grid, apps outermost, with each scheme's
    /// [default classification](SchemeKind::default_classification) — the
    /// Fig. 21 shape.
    pub fn grid(schemes: &[SchemeKind], apps: &[&str]) -> Self {
        let mut spec = Self::new();
        for app in apps {
            for &scheme in schemes {
                spec.push(
                    scheme,
                    CellWork::single(app, scheme.default_classification()),
                );
            }
        }
        spec
    }

    /// The (scheme × app) *alone-run* grid for multi-tenant scenarios:
    /// each cell runs one app by itself on the scenario's chip (a
    /// single-entry mix, so the system config and warmup match the
    /// shared runs it normalizes). `wp-tenant` divides each tenant's
    /// shared-run IPC by its alone-run IPC from this grid.
    pub fn alone_grid(schemes: &[SchemeKind], apps: &[&str], instrs: u64, cores16: bool) -> Self {
        let mut spec = Self::new();
        for &app in apps {
            for &scheme in schemes {
                spec.push(scheme, CellWork::mix(&[app], instrs, cores16));
            }
        }
        spec
    }

    /// Appends one cell. Cells run in insertion order as far as results
    /// are concerned, whatever the worker interleaving.
    pub fn push(&mut self, scheme: SchemeKind, work: CellWork) {
        self.cells.push(SweepCell { scheme, work });
    }

    /// Overrides the worker-thread count (`WP_JOBS` otherwise).
    #[must_use]
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Overrides the trace-cache directory (`WP_TRACE_CACHE` otherwise).
    /// Ignored when a full [`store`](Self::store) is attached.
    #[must_use]
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = dir.into();
        self
    }

    /// Attaches a [`TraceStore`] that owns warm-capture lookups (the
    /// default is a fresh [`DirStore`] over
    /// [`cache_dir`](Self::cache_dir)). The resident `wp-serve` daemon
    /// hands every sweep its long-lived store so lookups hit the warm
    /// in-memory index instead of the filesystem.
    #[must_use]
    pub fn store(mut self, store: Arc<dyn TraceStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Attaches a cooperative [`CancelToken`], checked before each
    /// capture and each cell (and inside each cell's [`Experiment`]).
    /// A fired token aborts the sweep with [`HarnessError::Cancelled`];
    /// in-flight cells finish normally first, so shared state (the trace
    /// cache, the obs registry) is never left mid-write.
    #[must_use]
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Overrides every single-app cell's warmup/measure budgets (the
    /// per-app [`run_budget`]/[`measure_budget`] otherwise). The trace
    /// cache is keyed on the budgets actually used.
    #[must_use]
    pub fn budgets(mut self, warmup: u64, measure: u64) -> Self {
        self.warmup_override = Some(warmup);
        self.measure_override = Some(measure);
        self
    }

    /// The number of cells queued.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the sweep is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Warmup/measure budgets of a registry app under this sweep.
    fn budgets_for(&self, app: &str) -> (u64, u64) {
        let warmup = self.warmup_override.unwrap_or_else(|| run_budget(app).0);
        let measure = self.measure_override.unwrap_or_else(|| measure_budget(app));
        (warmup, measure)
    }

    /// The [`TraceStore`] this sweep will run over: the attached one, or
    /// a fresh [`DirStore`] over the cache directory.
    fn resolve_store(&self) -> Arc<dyn TraceStore> {
        match &self.store {
            Some(s) => Arc::clone(s),
            None => Arc::new(DirStore::new(self.cache_dir.clone())),
        }
    }

    /// Runs the sweep: captures missing traces (in parallel), then fans
    /// the cells across the worker pool. Results come back in cell
    /// insertion order regardless of `jobs`, so output built from them is
    /// bit-identical to a serial run.
    ///
    /// # Errors
    ///
    /// Any [`HarnessError`] — unknown apps, capture I/O, or
    /// missing/malformed `trace:` files; the first error wins.
    pub fn run(self) -> Result<SweepResult, HarnessError> {
        // Validate every app name up front: the budget planning below
        // consults the registry, which panics on unknown names.
        for cell in &self.cells {
            match &cell.work {
                CellWork::Single { app, .. } => whirlpool_repro::harness::resolve_app(app)?,
                CellWork::Mix { apps, .. } => {
                    for app in apps {
                        whirlpool_repro::harness::resolve_app(app)?;
                    }
                }
            }
        }
        // Plan the captures: each registry app once per distinct budget,
        // with the store deciding which keys are already warm.
        let store = self.resolve_store();
        let mut captures: Vec<(String, u64, u64, String)> = Vec::new();
        for cell in &self.cells {
            if let CellWork::Single { app, .. } = &cell.work {
                if registry::trace_path(app).is_none() {
                    let (w, m) = self.budgets_for(app);
                    let key = capture_key(app, w, m);
                    if !captures.iter().any(|(_, _, _, k)| *k == key) {
                        captures.push((app.clone(), w, m, key));
                    }
                }
            }
        }
        let (missing, warm): (Vec<_>, Vec<_>) = captures
            .into_iter()
            .partition(|(_, _, _, k)| !store.contains(k));
        let cache_hits = warm.len();
        let cache_misses = missing.len();
        wp_obs::add(wp_obs::Counter::TraceCacheHits, cache_hits as u64);
        wp_obs::add(wp_obs::Counter::TraceCacheMisses, cache_misses as u64);
        if !missing.is_empty() {
            std::fs::create_dir_all(store.dir()).map_err(wp_trace::TraceError::from)?;
            eprintln!(
                "[sweep] capturing {} app(s) into {} ({} warm)",
                missing.len(),
                store.dir().display(),
                cache_hits,
            );
            parallel_map(self.jobs, missing.len(), |i| {
                if let Some(tok) = &self.cancel {
                    tok.check()?;
                }
                let (app, warmup, measure, key) = &missing[i];
                capture_app(
                    app,
                    *warmup,
                    *measure,
                    &store.path(key),
                    self.cancel.as_ref(),
                )?;
                store.note_captured(key);
                Ok(())
            })?;
        }
        // Fan the cells out.
        let total = self.cells.len();
        let done = AtomicUsize::new(0);
        let progress = progress_enabled();
        let sweep_start = Instant::now();
        let summaries = parallel_map(self.jobs, total, |i| {
            // Worker fault probes, before the cancel check so an
            // injected stall composes with a wall-clock deadline the
            // way a genuinely slow cell would.
            if wp_fault::fire(wp_fault::FaultPoint::WorkerPanic).is_some() {
                wp_obs::add(wp_obs::Counter::FaultsInjected, 1);
                panic!("injected worker fault");
            }
            if let Some(shot) = wp_fault::fire(wp_fault::FaultPoint::WorkerSlow) {
                wp_obs::add(wp_obs::Counter::FaultsInjected, 1);
                std::thread::sleep(std::time::Duration::from_millis(shot.millis));
            }
            if let Some(tok) = &self.cancel {
                tok.check()?;
            }
            let cell = &self.cells[i];
            // A worker runs one cell at a time, so the thread-local phase
            // delta across the cell is the cell's breakdown; drain any
            // residue a previous cell (or capture) left on this thread.
            let _ = wp_obs::take_thread_phases();
            let cell_start = Instant::now();
            let summary = self.run_cell(cell, &store)?;
            let phases = wp_obs::take_thread_phases();
            wp_obs::add(wp_obs::Counter::SweepCellsCompleted, 1);
            let n = done.fetch_add(1, Ordering::Relaxed) + 1;
            if progress {
                let events: u64 = summary
                    .cores
                    .iter()
                    .map(|c| c.llc_accesses + c.llc_bypasses)
                    .sum();
                let rate = events as f64 / cell_start.elapsed().as_secs_f64().max(1e-9);
                let elapsed = sweep_start.elapsed().as_secs_f64();
                let eta = elapsed / n as f64 * (total - n) as f64;
                eprintln!(
                    "[sweep] {n}/{total} {}/{} {:.2} Mev/s eta {:.0}s",
                    cell.scheme.label(),
                    cell.work.label(),
                    rate / 1e6,
                    eta,
                );
            }
            Ok((summary, phases))
        })?;
        let jobs = self.jobs;
        let cells = self
            .cells
            .into_iter()
            .zip(summaries)
            .map(|(cell, (summary, phases))| CellResult {
                scheme: cell.scheme,
                work: cell.work,
                summary,
                phases,
            })
            .collect();
        Ok(SweepResult {
            cells,
            cache_hits,
            cache_misses,
            jobs,
        })
    }

    /// Applies the sweep-wide cancel token, if any.
    fn with_cancel(&self, mut exp: Experiment) -> Experiment {
        if let Some(tok) = &self.cancel {
            exp = exp.cancel_token(tok.clone());
        }
        exp
    }

    fn run_cell(
        &self,
        cell: &SweepCell,
        store: &Arc<dyn TraceStore>,
    ) -> Result<RunSummary, HarnessError> {
        match &cell.work {
            CellWork::Single {
                app,
                classification,
            } => {
                if registry::trace_path(app).is_some() {
                    // A user-supplied recording: replay raw (its own
                    // warmup is baked in) unless budgets are overridden.
                    let mut exp =
                        Experiment::single(cell.scheme, app).classification(*classification);
                    if let Some(w) = self.warmup_override {
                        exp = exp.warmup(w);
                    }
                    if let Some(m) = self.measure_override {
                        exp = exp.measure(m);
                    }
                    return self.with_cancel(exp).run();
                }
                // A cached capture: the event stream comes from the
                // cache; the pools are rebuilt from the registry model
                // so per-cell classifications (Fig. 16's WhirlTool
                // 2/3/4-pool variants) replay against the same stream.
                let (w, m) = self.budgets_for(app);
                let key = capture_key(app, w, m);
                let path_str = store.path(&key).display().to_string();
                let attempt = || -> Result<RunSummary, HarnessError> {
                    // Corruption past the header panics mid-replay (the
                    // `Workload` trait has no error channel), so the
                    // attempt catches unwinds and types them — the heal
                    // check below recognizes the ones naming this
                    // capture's path.
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                        || -> Result<RunSummary, HarnessError> {
                            let model = AppModel::new(registry::spec(app));
                            let pools = descriptors_for(&model, app, *classification);
                            let bundle = WorkloadBundle {
                                trace: Box::new(TraceWorkload::open(&store.path(&key))?),
                                pools,
                                name: app.clone(),
                            };
                            self.with_cancel(
                                Experiment::bundles(cell.scheme, vec![bundle])
                                    .warmup(w)
                                    .measure(m),
                            )
                            .run()
                        },
                    ))
                    .unwrap_or_else(|payload| {
                        Err(HarnessError::Panic(
                            whirlpool_repro::harness::panic_message(payload),
                        ))
                    })
                };
                // Healable: a typed trace error (failed open/validate),
                // or a replay panic that names this capture's file —
                // any other panic (e.g. an injected worker fault) is
                // not the cache's doing and must surface as-is.
                let healable = |err: &HarnessError| match err {
                    HarnessError::Trace(_) => true,
                    HarnessError::Panic(msg) => msg.contains(&path_str),
                    _ => false,
                };
                match attempt() {
                    // Self-healing: a cached capture that fails to open
                    // or validate (truncated, bit-flipped, vanished) is
                    // evicted and re-captured once, then the cell
                    // retries — the stream is deterministic, so the
                    // healed output is byte-identical to a clean-cache
                    // run. A second failure surfaces as usual.
                    Err(e) if healable(&e) => {
                        eprintln!(
                            "[sweep] cached capture '{key}' failed ({e}); \
                             evicting and re-capturing"
                        );
                        store.evict(&key);
                        wp_obs::add(wp_obs::Counter::TraceCacheEvictions, 1);
                        capture_app(app, w, m, &store.path(&key), self.cancel.as_ref())?;
                        store.note_captured(&key);
                        attempt()
                    }
                    r => r,
                }
            }
            CellWork::Mix {
                apps,
                instrs,
                cores16,
            } => {
                let refs: Vec<&str> = apps.iter().map(String::as_str).collect();
                let mut exp = Experiment::mix(cell.scheme, &refs).measure(*instrs);
                // Mixes default to the fixed shared warmup; scenario
                // alone-run grids override it so the baseline cells warm
                // exactly like the shared epochs they normalize.
                if let Some(w) = self.warmup_override {
                    exp = exp.warmup(w);
                }
                if *cores16 {
                    exp = exp.system(whirlpool_repro::harness::sixteen_core_config());
                }
                self.with_cancel(exp).run()
            }
        }
    }
}

/// Captures `app` once under the cheapest scheme. The driver pulls
/// events purely by instruction count, so the recorded stream is
/// identical whichever scheme (or classification) the capture ran under —
/// one capture serves every cell. The write goes to
/// `<key>.wpt.tmp.<pid>-<seq>` and is renamed into place only when
/// complete, so a killed process (or a cancelled job) never leaves a
/// truncated `.wpt`: warm lookups match the exact `.wpt` name and are
/// blind to temp files by construction.
fn capture_app(
    app: &str,
    warmup: u64,
    measure: u64,
    path: &Path,
    cancel: Option<&CancelToken>,
) -> Result<(), HarnessError> {
    // Unique per process *and* per capture: concurrent sweeps in one
    // process (tests sharing a cache dir) must never write the same
    // temp file.
    static TMP_SEQ: AtomicUsize = AtomicUsize::new(0);
    let file = path
        .file_name()
        .and_then(|n| n.to_str())
        .expect("capture paths are <key>.wpt");
    let tmp = path.with_file_name(format!(
        "{file}.tmp.{}-{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let mut exp = Experiment::single(SchemeKind::SNucaLru, app)
        .classification(Classification::None)
        .warmup(warmup)
        .measure(measure)
        .capture_to(&tmp);
    if let Some(tok) = cancel {
        exp = exp.cancel_token(tok.clone());
    }
    let result = exp.run().and_then(|_| {
        std::fs::rename(&tmp, path).map_err(|e| wp_trace::TraceError::from(e).into())
    });
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result.map(|_| ())
}

/// Runs `f(0..n)` on a pool of `jobs` scoped worker threads, returning
/// results in index order. The whole simulation stack is `Send`, so each
/// worker owns its cells end to end; the first error (lowest index) wins,
/// whatever the worker interleaving — which is what keeps callers'
/// output independent of `WP_JOBS`. Also used by `wp-tenant` to fan a
/// scenario's schemes out without inventing a second thread pool.
pub fn parallel_map<T, F>(jobs: usize, n: usize, f: F) -> Result<Vec<T>, HarnessError>
where
    T: Send,
    F: Fn(usize) -> Result<T, HarnessError> + Sync,
{
    let next = AtomicUsize::new(0);
    // Early abort: once any cell errors, workers stop claiming new cells
    // instead of simulating the rest of the grid before failing.
    let failed = std::sync::atomic::AtomicBool::new(false);
    let slots: Vec<Mutex<Option<Result<T, HarnessError>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for w in 0..jobs.clamp(1, n.max(1)) {
            let worker = || loop {
                if failed.load(Ordering::Relaxed) {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // Worker isolation: a panicking cell fails with a typed
                // error instead of abandoning its slot and poisoning the
                // whole map (and, one level up, the serving daemon).
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i)))
                    .unwrap_or_else(|payload| {
                        Err(HarnessError::Panic(
                            whirlpool_repro::harness::panic_message(payload),
                        ))
                    });
                if r.is_err() {
                    failed.store(true, Ordering::Relaxed);
                }
                *slots[i].lock().expect("result slot") = Some(r);
            };
            std::thread::Builder::new()
                .name(format!("wp-sweep-{w}"))
                .spawn_scoped(s, worker)
                .expect("spawn sweep worker");
            wp_obs::add(wp_obs::Counter::ThreadsSpawned, 1);
        }
    });
    let mut collected: Vec<Option<Result<T, HarnessError>>> = slots
        .into_iter()
        .map(|m| m.into_inner().expect("result slot"))
        .collect();
    // The lowest-index error wins; slots left unclaimed by the abort
    // (always at higher indices than the error) are simply dropped.
    if let Some(i) = collected.iter().position(|r| matches!(r, Some(Err(_)))) {
        match collected.swap_remove(i) {
            Some(Err(e)) => return Err(e),
            _ => unreachable!("position() found an Err here"),
        }
    }
    collected
        .into_iter()
        .map(|r| match r {
            Some(Ok(v)) => Ok(v),
            _ => panic!("a worker abandoned a slot without reporting an error"),
        })
        .collect()
}

/// One completed cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The scheme that ran.
    pub scheme: SchemeKind,
    /// What it ran.
    pub work: CellWork,
    /// The run's summary.
    pub summary: RunSummary,
    /// Wall-clock phase breakdown of the cell (decode/warmup/measure/…),
    /// attributed via the worker thread's span accumulator. Empty unless
    /// the observability registry is on (`WP_OBS=1`).
    pub phases: wp_obs::PhaseTotals,
}

/// A completed sweep: cell results in spec order plus the engine
/// environment that produced them (jobs, cache statistics).
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Per-cell results, in the order the cells were pushed.
    pub cells: Vec<CellResult>,
    /// Captures found warm in the cache.
    pub cache_hits: usize,
    /// Captures that had to run.
    pub cache_misses: usize,
    /// Worker threads the sweep ran with.
    pub jobs: usize,
}

impl SweepResult {
    /// One machine-readable JSON line for the whole sweep:
    /// `{"env":{…},"cells":[…]}`. The `env` block records `WP_JOBS` and
    /// the trace-cache hit/miss counts so a committed `BENCH_*.json` is
    /// self-describing; each cell additionally carries its wall-clock
    /// `phases` breakdown when observability was on. Those fields vary run to run by construction — comparisons
    /// that assert determinism use [`cells_json`](Self::cells_json), the
    /// projection that is bit-identical whatever `WP_JOBS`, cache
    /// temperature, or `WP_OBS` were.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"env\":{},\"cells\":[{}]}}",
            self.env_json(),
            self.cell_rows(true).join(","),
        )
    }

    /// The engine-environment block of [`to_json`](Self::to_json).
    pub fn env_json(&self) -> String {
        format!(
            "{{\"jobs\":{},\"trace_cache_hits\":{},\"trace_cache_misses\":{}}}",
            self.jobs, self.cache_hits, self.cache_misses,
        )
    }

    /// The deterministic projection of the sweep: the cell results alone
    /// (no env block, no phase timings), bit-identical for a given cell
    /// list whatever `WP_JOBS`, the cache temperature, or `WP_OBS` were.
    pub fn cells_json(&self) -> String {
        format!("{{\"cells\":[{}]}}", self.cell_rows(false).join(","))
    }

    fn cell_rows(&self, with_phases: bool) -> Vec<String> {
        self.cells
            .iter()
            .map(|c| {
                let mut row = format!(
                    "{{\"scheme\":{},\"work\":{},\"summary\":{}",
                    wp_sim::json_string(c.scheme.label()),
                    work_json(&c.work),
                    c.summary.to_json(),
                );
                if with_phases && !c.phases.is_empty() {
                    row.push_str(&format!(",\"phases\":{}", c.phases.to_json()));
                }
                row.push('}');
                row
            })
            .collect()
    }
}

fn work_json(work: &CellWork) -> String {
    match work {
        CellWork::Single {
            app,
            classification,
        } => format!(
            "{{\"app\":{},\"classification\":{}}}",
            wp_sim::json_string(app),
            wp_sim::json_string(&classification_label(*classification)),
        ),
        CellWork::Mix {
            apps,
            instrs,
            cores16,
        } => {
            let list: Vec<String> = apps.iter().map(|a| wp_sim::json_string(a)).collect();
            format!(
                "{{\"apps\":[{}],\"instrs\":{instrs},\"cores\":{}}}",
                list.join(","),
                if *cores16 { 16 } else { 4 },
            )
        }
    }
}

fn classification_label(c: Classification) -> String {
    match c {
        Classification::None => "none".into(),
        Classification::Manual => "manual".into(),
        Classification::WhirlTool { pools, train } => {
            format!("whirltool-{pools}-{}", if train { "train" } else { "ref" })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_orders_apps_outermost() {
        let spec = SweepSpec::grid(
            &[SchemeKind::SNucaLru, SchemeKind::Whirlpool],
            &["delaunay", "mcf"],
        );
        assert_eq!(spec.len(), 4);
        let labels: Vec<String> = spec
            .cells
            .iter()
            .map(|c| format!("{}/{}", c.scheme.label(), c.work.label()))
            .collect();
        assert_eq!(
            labels,
            [
                "LRU/delaunay",
                "Whirlpool/delaunay",
                "LRU/mcf",
                "Whirlpool/mcf"
            ]
        );
    }

    #[test]
    fn cache_path_keys_on_app_and_budgets() {
        let store = SweepSpec::new().cache_dir("/tmp/c").resolve_store();
        let a = store.path(&capture_key("delaunay", 100, 200));
        let b = store.path(&capture_key("delaunay", 100, 300));
        let c = store.path(&capture_key("mcf", 100, 200));
        assert_ne!(a, b, "measure budget is part of the key");
        assert_ne!(a, c, "app name is part of the key");
        assert_eq!(
            a,
            store.path(&capture_key("delaunay", 100, 200)),
            "key is stable"
        );
    }

    #[test]
    fn cancelled_token_aborts_before_any_cell() {
        let tok = CancelToken::new();
        tok.cancel();
        let mut spec = SweepSpec::new()
            .cache_dir(std::env::temp_dir().join("wp-sweep-cancel"))
            .cancel_token(tok);
        spec.push(
            SchemeKind::SNucaLru,
            CellWork::single("delaunay", Classification::None),
        );
        assert!(matches!(spec.run(), Err(HarnessError::Cancelled)));
    }

    #[test]
    fn classification_labels_are_distinct() {
        let all = [
            classification_label(Classification::None),
            classification_label(Classification::Manual),
            classification_label(Classification::WhirlTool {
                pools: 3,
                train: true,
            }),
            classification_label(Classification::WhirlTool {
                pools: 3,
                train: false,
            }),
        ];
        let set: std::collections::HashSet<&String> = all.iter().collect();
        assert_eq!(set.len(), all.len());
    }

    #[test]
    fn parallel_map_preserves_order_and_errors() {
        let out = parallel_map(4, 16, |i| Ok(i * 2)).unwrap();
        assert_eq!(out, (0..16).map(|i| i * 2).collect::<Vec<_>>());
        let err = parallel_map(4, 8, |i| {
            if i == 3 {
                Err(wp_trace::TraceError::Corrupt("boom".into()).into())
            } else {
                Ok(i)
            }
        });
        assert!(err.is_err());
    }

    #[test]
    fn unknown_app_surfaces_before_any_capture() {
        // A typo'd registry name: typed error with a suggestion, not the
        // registry's panic (and no capture attempted).
        let mut spec = SweepSpec::new().cache_dir(std::env::temp_dir().join("wp-sweep-unknown"));
        spec.push(
            SchemeKind::SNucaLru,
            CellWork::single("delauny", Classification::None),
        );
        assert!(matches!(spec.run(), Err(HarnessError::UnknownApp { .. })));
        // A dangling trace URI: the harness's trace error.
        let mut spec = SweepSpec::new().cache_dir(std::env::temp_dir().join("wp-sweep-unknown"));
        spec.push(
            SchemeKind::SNucaLru,
            CellWork::single("trace:/nonexistent/x.wpt", Classification::None),
        );
        assert!(matches!(spec.run(), Err(HarnessError::Trace(_))));
    }
}
