//! Experiment harness: scheme factories and the one experiment entry
//! point shared by the per-figure benchmarks, the examples, the
//! `trace_tool` CLI, and the integration tests.
//!
//! [`Experiment`] is the single builder every consumer goes through: a
//! placement (one app, a multi-program mix, a task-parallel app, a
//! trace replay, or pre-built bundles) plus the knobs that used to be
//! scattered across free functions — classification, warmup/measure
//! budgets, system configuration, RNG seed, and capture. Misuse surfaces
//! as a typed [`HarnessError`] (with did-you-mean suggestions for app and
//! scheme names) instead of a panic or a misfiled
//! [`wp_trace::TraceError`].

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use wp_baselines::{
    AwasthiParams, AwasthiScheme, IdealSpdScheme, MemshareScheme, SNucaScheme, SnucaReplacement,
};
use wp_jigsaw::{NucaConfig, NucaRuntime};
use wp_mem::{CallpointId, PageId, LINES_PER_PAGE};
use wp_noc::CoreId;
use wp_paws::{core_workloads, schedule, ParallelClassification, SchedPolicy, Schedule};
use wp_sim::{LlcScheme, MultiCoreSim, RunSummary, SystemConfig, WorkloadBundle};
use wp_trace::{TraceError, TraceInfo};
use wp_whirltool::{cluster, profile, ProfilerConfig};
use wp_workloads::parallel::{ParallelApp, ParallelSpec};
use wp_workloads::registry;
use wp_workloads::AppModel;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Everything that can go wrong building or running an [`Experiment`].
///
/// Each variant corresponds to one way a consumer used to panic (unknown
/// registry names, over-subscribed floorplans) or to receive a misfiled
/// [`TraceError`]. The [`Display`](std::fmt::Display) rendering is a
/// single line suitable for CLI output, including a did-you-mean
/// suggestion where one exists.
#[derive(Debug)]
pub enum HarnessError {
    /// The app name is neither a registry benchmark nor a `trace:<path>`
    /// URI.
    UnknownApp {
        /// The name that failed to resolve.
        name: String,
        /// Closest registry name, if one is plausibly intended.
        suggestion: Option<String>,
    },
    /// The scheme name matches no [`SchemeKind`] label or alias.
    UnknownScheme {
        /// The name that failed to resolve.
        name: String,
        /// Closest scheme label, if one is plausibly intended.
        suggestion: Option<String>,
    },
    /// More workloads (mix apps, replay streams, bundles) than the
    /// floorplan has cores.
    TooManyWorkloads {
        /// Workloads requested.
        workloads: usize,
        /// Cores available on the configured chip.
        cores: usize,
    },
    /// Two workloads of a mix occupy overlapping page ranges — typically
    /// two `trace:` recordings replayed in the same recorded address
    /// space, which would silently alias pages across cores.
    AddressSpaceCollision {
        /// First colliding core.
        core_a: usize,
        /// Its workload name.
        app_a: String,
        /// Second colliding core.
        core_b: usize,
        /// Its workload name.
        app_b: String,
    },
    /// A trace file failed to open, read, or validate (missing,
    /// truncated, corrupt, or capture I/O).
    Trace(TraceError),
    /// A multi-tenant scenario (`.wps`) failed to parse or validate:
    /// malformed JSON, missing/ill-typed fields, negative times, or an
    /// inconsistent tenant set.
    Scenario(String),
    /// A worker thread panicked mid-run and was isolated by
    /// `catch_unwind`; the payload's one-line rendering is preserved.
    /// The job (or cell) fails with this typed error instead of tearing
    /// down the process or the daemon.
    Panic(String),
    /// The run's [`CancelToken`] fired before or between its cooperative
    /// checkpoints; no result was produced.
    Cancelled,
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HarnessError::UnknownApp { name, suggestion } => {
                write!(f, "unknown app '{name}'")?;
                match suggestion {
                    Some(s) => write!(f, " (did you mean '{s}'?)"),
                    None => write!(f, " (expected a registry name or trace:<path>)"),
                }
            }
            HarnessError::UnknownScheme { name, suggestion } => {
                write!(f, "unknown scheme '{name}'")?;
                match suggestion {
                    Some(s) => write!(f, " (did you mean '{s}'?)"),
                    None => write!(
                        f,
                        " (expected one of: {})",
                        SchemeKind::ALL.map(SchemeKind::label).join(", ")
                    ),
                }
            }
            HarnessError::TooManyWorkloads { workloads, cores } => {
                write!(f, "{workloads} workloads exceed the {cores}-core chip")?;
                if *cores < 16 && *workloads <= 16 {
                    write!(f, " (try the 16-core system, e.g. --sixteen-core)")?;
                }
                Ok(())
            }
            HarnessError::AddressSpaceCollision {
                core_a,
                app_a,
                core_b,
                app_b,
            } => write!(
                f,
                "workloads on core {core_a} ('{app_a}') and core {core_b} ('{app_b}') \
                 overlap in the page address space; traces replay in their recorded \
                 address spaces, so re-record them at disjoint bases or replay them \
                 in separate runs"
            ),
            HarnessError::Trace(e) => write!(f, "{e}"),
            HarnessError::Scenario(msg) => write!(f, "scenario error: {msg}"),
            HarnessError::Panic(msg) => write!(f, "worker panicked: {msg}"),
            HarnessError::Cancelled => write!(f, "cancelled before completion"),
        }
    }
}

impl std::error::Error for HarnessError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HarnessError::Trace(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TraceError> for HarnessError {
    fn from(e: TraceError) -> Self {
        HarnessError::Trace(e)
    }
}

/// Renders a `catch_unwind` payload as a one-line message — the string
/// the `panic!` carried when there is one, a placeholder otherwise.
/// Shared by every worker-isolation site (sweep cells, serve workers).
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".into())
}

// ---------------------------------------------------------------------------
// Cooperative cancellation
// ---------------------------------------------------------------------------

/// A shared cancellation flag, checked cooperatively at the coarse
/// checkpoints of a run: before an [`Experiment`] builds its workloads,
/// before it launches the simulator, and (in `wp_bench::sweep`) before
/// each capture and each cell. Cloning shares the flag; any clone's
/// [`cancel`](Self::cancel) stops every holder at its next checkpoint,
/// surfacing as [`HarnessError::Cancelled`].
///
/// The experiment service hands one token per job to the code it runs,
/// which is how a `cancel` verb (or a daemon shutdown drain) stops an
/// in-flight sweep without poisoning shared state: workers finish the
/// cell they are on and release everything normally.
///
/// A token can also carry a wall-clock **deadline**
/// ([`set_deadline_in`](Self::set_deadline_in)): once it passes, the
/// token behaves as if cancelled, but [`timed_out`](Self::timed_out)
/// distinguishes the two so callers (the serve dispatcher) can surface
/// "timed out" rather than "cancelled by request".
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<CancelInner>);

#[derive(Debug, Default)]
struct CancelInner {
    fired: AtomicBool,
    timed_out: AtomicBool,
    /// Deadline in nanoseconds since [`cancel_anchor`]; 0 = none.
    deadline_ns: AtomicU64,
}

/// The process-wide instant deadlines are measured from (an `Instant`
/// cannot live in an atomic, its offset from a fixed anchor can).
fn cancel_anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

impl CancelToken {
    /// A fresh, un-fired token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fires the token; every holder errors at its next checkpoint.
    pub fn cancel(&self) {
        self.0.fired.store(true, Ordering::Relaxed);
    }

    /// Arms (or, with `None`, disarms) a wall-clock deadline `budget`
    /// from now. Checkpoints past the deadline fire the token and mark
    /// it [`timed_out`](Self::timed_out).
    pub fn set_deadline_in(&self, budget: Option<Duration>) {
        let ns = budget.map_or(0, |d| {
            let at = cancel_anchor().elapsed() + d;
            // Saturate, and avoid 0 ("no deadline") for a degenerate
            // zero-budget arm.
            u64::try_from(at.as_nanos()).unwrap_or(u64::MAX).max(1)
        });
        self.0.deadline_ns.store(ns, Ordering::Relaxed);
    }

    /// Whether the token has fired (including by deadline).
    pub fn is_cancelled(&self) -> bool {
        if self.0.fired.load(Ordering::Relaxed) {
            return true;
        }
        let deadline = self.0.deadline_ns.load(Ordering::Relaxed);
        if deadline != 0 && cancel_anchor().elapsed().as_nanos() >= u128::from(deadline) {
            self.0.timed_out.store(true, Ordering::Relaxed);
            self.0.fired.store(true, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// Whether the token fired by blowing its wall-clock deadline
    /// rather than by an explicit [`cancel`](Self::cancel).
    pub fn timed_out(&self) -> bool {
        self.0.timed_out.load(Ordering::Relaxed)
    }

    /// `Err(Cancelled)` once the token has fired — the checkpoint
    /// helper run loops call.
    ///
    /// # Errors
    ///
    /// [`HarnessError::Cancelled`] when [`cancel`](Self::cancel) has been
    /// called on any clone.
    pub fn check(&self) -> Result<(), HarnessError> {
        if self.is_cancelled() {
            Err(HarnessError::Cancelled)
        } else {
            Ok(())
        }
    }
}

// ---------------------------------------------------------------------------
// Classification memo
// ---------------------------------------------------------------------------

/// Memo key: everything that determines a WhirlTool classification run's
/// output — `(app, pools, train)`.
type ClassifyKey = (String, usize, bool);

/// Memoized classification result, shared across experiments by `Arc`.
type ClassifyMemo = Mutex<HashMap<ClassifyKey, Arc<HashMap<CallpointId, usize>>>>;

fn classify_memo() -> &'static ClassifyMemo {
    static MEMO: OnceLock<ClassifyMemo> = OnceLock::new();
    MEMO.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Levenshtein edit distance, for did-you-mean suggestions.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.iter().enumerate() {
        let mut cur = vec![i + 1];
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur.push(sub.min(prev[j + 1] + 1).min(cur[j] + 1));
        }
        prev = cur;
    }
    prev[b.len()]
}

/// The closest candidate within an edit distance small enough to be a
/// plausible typo (case-insensitive), or `None`.
fn suggest<'a, I: IntoIterator<Item = &'a str>>(input: &str, candidates: I) -> Option<String> {
    let needle = input.to_ascii_lowercase();
    candidates
        .into_iter()
        .map(|c| (edit_distance(&needle, &c.to_ascii_lowercase()), c))
        .filter(|(d, c)| *d <= 3 && *d * 2 < c.len().max(needle.len()))
        .min_by_key(|(d, _)| *d)
        .map(|(_, c)| c.to_string())
}

/// Validates that `app` is a registry benchmark or a `trace:<path>` URI.
///
/// # Errors
///
/// [`HarnessError::UnknownApp`], with a did-you-mean suggestion drawn
/// from the registry names.
pub fn resolve_app(app: &str) -> Result<(), HarnessError> {
    if registry::trace_path(app).is_some() || registry::all_apps().contains(&app) {
        return Ok(());
    }
    Err(HarnessError::UnknownApp {
        name: app.to_string(),
        suggestion: suggest(app, registry::all_apps()),
    })
}

// ---------------------------------------------------------------------------
// Schemes
// ---------------------------------------------------------------------------

/// The evaluated LLC schemes (Fig. 10/21 set plus the bypass ablations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// S-NUCA with LRU banks.
    SNucaLru,
    /// S-NUCA with DRRIP banks.
    SNucaDrrip,
    /// Idealized shared-private D-NUCA (Appendix A).
    IdealSpd,
    /// Awasthi et al. page migration.
    Awasthi,
    /// Jigsaw (with bypassing).
    Jigsaw,
    /// Jigsaw without bypassing (ablation).
    JigsawNoBypass,
    /// Whirlpool (per-pool VCs + bypassing).
    Whirlpool,
    /// Whirlpool without bypassing (ablation).
    WhirlpoolNoBypass,
    /// Memshare-style greedy marginal-benefit capacity apportioning
    /// (the multi-tenant baseline).
    Memshare,
}

impl SchemeKind {
    /// The six-scheme comparison of Figs. 10/19/20/21.
    pub const FIG10: [SchemeKind; 6] = [
        SchemeKind::SNucaLru,
        SchemeKind::SNucaDrrip,
        SchemeKind::IdealSpd,
        SchemeKind::Awasthi,
        SchemeKind::Jigsaw,
        SchemeKind::Whirlpool,
    ];

    /// Every evaluated scheme, including the bypass ablations.
    pub const ALL: [SchemeKind; 9] = [
        SchemeKind::SNucaLru,
        SchemeKind::SNucaDrrip,
        SchemeKind::IdealSpd,
        SchemeKind::Awasthi,
        SchemeKind::Jigsaw,
        SchemeKind::JigsawNoBypass,
        SchemeKind::Whirlpool,
        SchemeKind::WhirlpoolNoBypass,
        SchemeKind::Memshare,
    ];

    /// Parses a scheme name: the figure labels of [`label`](Self::label)
    /// (case-insensitive, `_`/space tolerated) plus the `snuca-lru` /
    /// `snuca-drrip` long forms.
    pub fn parse(s: &str) -> Option<SchemeKind> {
        let norm = s.trim().to_ascii_lowercase().replace(['_', ' '], "-");
        match norm.as_str() {
            "snuca-lru" => return Some(SchemeKind::SNucaLru),
            "snuca-drrip" => return Some(SchemeKind::SNucaDrrip),
            _ => {}
        }
        SchemeKind::ALL
            .into_iter()
            .find(|k| k.label().to_ascii_lowercase() == norm)
    }

    /// [`parse`](Self::parse) with a typed error: unknown names come back
    /// as [`HarnessError::UnknownScheme`] with a did-you-mean suggestion
    /// drawn from the labels and aliases.
    ///
    /// # Errors
    ///
    /// [`HarnessError::UnknownScheme`] when the name matches nothing.
    pub fn resolve(s: &str) -> Result<SchemeKind, HarnessError> {
        SchemeKind::parse(s).ok_or_else(|| HarnessError::UnknownScheme {
            name: s.to_string(),
            suggestion: suggest(
                s,
                SchemeKind::ALL
                    .iter()
                    .map(|k| k.label())
                    .chain(["snuca-lru", "snuca-drrip"]),
            ),
        })
    }

    /// Display name matching the paper's figure labels.
    pub fn label(self) -> &'static str {
        match self {
            SchemeKind::SNucaLru => "LRU",
            SchemeKind::SNucaDrrip => "DRRIP",
            SchemeKind::IdealSpd => "IdealSPD",
            SchemeKind::Awasthi => "Awasthi",
            SchemeKind::Jigsaw => "Jigsaw",
            SchemeKind::JigsawNoBypass => "Jigsaw-NoBypass",
            SchemeKind::Whirlpool => "Whirlpool",
            SchemeKind::WhirlpoolNoBypass => "Whirlpool-NoBypass",
            SchemeKind::Memshare => "Memshare",
        }
    }

    /// Whether this scheme consumes static classification.
    pub fn uses_pools(self) -> bool {
        matches!(self, SchemeKind::Whirlpool | SchemeKind::WhirlpoolNoBypass)
    }

    /// The classification this scheme receives by default: the manual
    /// Table-2 pools for Whirlpool variants, none for everything else
    /// (which would ignore pools anyway).
    pub fn default_classification(self) -> Classification {
        if self.uses_pools() {
            Classification::Manual
        } else {
            Classification::None
        }
    }
}

/// Instantiates a scheme for a system. Jigsaw and Whirlpool, with or
/// without bypassing, are the one [`NucaRuntime`] configured four ways.
pub fn make_scheme(kind: SchemeKind, sys: &SystemConfig) -> Box<dyn LlcScheme> {
    let nuca = |per_pool_vcs, bypass_enabled| -> Box<dyn LlcScheme> {
        let config = NucaConfig::for_system(sys, per_pool_vcs, bypass_enabled);
        Box::new(NucaRuntime::new(sys.clone(), config, kind.label()))
    };
    match kind {
        SchemeKind::SNucaLru => Box::new(SNucaScheme::new(sys, SnucaReplacement::Lru)),
        SchemeKind::SNucaDrrip => Box::new(SNucaScheme::new(sys, SnucaReplacement::Drrip)),
        SchemeKind::IdealSpd => Box::new(IdealSpdScheme::new(sys)),
        SchemeKind::Awasthi => Box::new(AwasthiScheme::new(sys, AwasthiParams::default())),
        SchemeKind::Jigsaw => nuca(false, true),
        SchemeKind::JigsawNoBypass => nuca(false, false),
        SchemeKind::Whirlpool => nuca(true, true),
        SchemeKind::WhirlpoolNoBypass => nuca(true, false),
        SchemeKind::Memshare => Box::new(MemshareScheme::new(sys)),
    }
}

/// How a workload's data is classified into pools.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Classification {
    /// No pools (baselines and Jigsaw ignore them anyway).
    None,
    /// The manual Table-2-style classification built into the app model.
    Manual,
    /// WhirlTool's automatic classification with `pools` clusters,
    /// profiled on the train (`train = true`) or reference input.
    WhirlTool {
        /// Number of pools to cluster into.
        pools: usize,
        /// Profile on the training input (the paper's default).
        train: bool,
    },
}

/// The default 4-core system used for single-app and 4-core mix runs,
/// with the reconfiguration interval scaled to our run lengths.
pub fn four_core_config() -> SystemConfig {
    let mut sys = SystemConfig::four_core();
    sys.reconfig_interval_cycles = 2_500_000;
    sys
}

/// The 16-core system (Fig. 12/13/22b).
pub fn sixteen_core_config() -> SystemConfig {
    let mut sys = SystemConfig::sixteen_core();
    sys.reconfig_interval_cycles = 2_500_000;
    sys
}

/// Runs WhirlTool end to end for `app`: profile (train or ref input)
/// with exact Mattson stacks, cluster, return the callpoint→pool
/// assignment.
///
/// Classification is pure in `(app, pools, train)`, so results are
/// memoized process-wide: repeat invocations —
/// every cell of a sweep, every request a resident `wp-serve` daemon
/// handles — reuse the first run's assignment instead of re-profiling
/// 10 M instructions. Hits and misses are tallied under
/// `wp_obs::Counter::{ClassifyMemoHits, ClassifyMemoMisses}`.
pub fn classify_with_whirltool(
    app: &str,
    pools: usize,
    train: bool,
) -> HashMap<CallpointId, usize> {
    let key: ClassifyKey = (app.to_string(), pools, train);
    if let Some(hit) = classify_memo()
        .lock()
        .expect("classification memo poisoned")
        .get(&key)
    {
        wp_obs::add(wp_obs::Counter::ClassifyMemoHits, 1);
        return HashMap::clone(hit);
    }
    wp_obs::add(wp_obs::Counter::ClassifyMemoMisses, 1);
    let spec = if train {
        registry::train_spec(app)
    } else {
        registry::spec(app)
    };
    let model = AppModel::new(spec);
    let page_map: HashMap<PageId, CallpointId> = model
        .callpoints()
        .iter()
        .flat_map(|(cp, _, pages)| pages.iter().map(move |p| (*p, *cp)))
        .collect();
    let mut trace = model.trace();
    let data = profile(
        &mut trace,
        &page_map,
        ProfilerConfig {
            interval_instrs: 2_000_000,
            total_instrs: 10_000_000,
            granule_lines: 1024,
            curve_points: 201,
        },
    );
    let tree = cluster(&data, 200);
    let assignment = Arc::new(tree.assignment(pools));
    classify_memo()
        .lock()
        .expect("classification memo poisoned")
        .insert(key, Arc::clone(&assignment));
    HashMap::clone(&assignment)
}

/// Builds the pool descriptors of `model` under a classification.
pub fn descriptors_for(
    model: &AppModel,
    app: &str,
    classification: Classification,
) -> Vec<wp_sim::PoolDescriptor> {
    match classification {
        Classification::None => Vec::new(),
        Classification::Manual => model.descriptors_manual(),
        Classification::WhirlTool { pools, train } => {
            let assignment = classify_with_whirltool(app, pools, train);
            model.descriptors_from_clusters(&assignment)
        }
    }
}

/// Per-app run budget `(warmup_instrs, measure_instrs)`, the scaled-down
/// analogue of the paper's 20 B fast-forward + 10 B measurement: warmup
/// covers ~3 walks of the (LLC-capped) working set; measurement covers at
/// least twice that, a 10 M floor, and ≥3 full phase cycles for phased
/// apps.
pub fn run_budget(app: &str) -> (u64, u64) {
    if registry::trace_path(app).is_some() {
        // Recorded traces replay raw by default: no warmup (the capture
        // already includes the original run's warmup events) and run to
        // exhaustion. Override via `Experiment::warmup` / `measure`.
        return (0, u64::MAX);
    }
    let spec = registry::spec(app);
    // 4-core LLC (12.5 MB).
    let llc_lines = 200u64 * 1024;
    // Monitors need ~2 walks of each pool's footprint at that pool's access
    // rate before its curve tail converges, plus the EWMA window. Budget 3
    // walks of the slowest LLC-fitting pool (streaming pools never converge
    // to cacheable and are capped at the LLC size).
    let weight_sum: f64 = spec.phases[0].mix.iter().map(|m| m.weight).sum();
    let slowest_walk = spec
        .pools
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let weight: f64 = spec
                .phases
                .iter()
                .flat_map(|ph| ph.mix.iter())
                .filter(|m| m.pool == i)
                .map(|m| m.weight)
                .fold(0.0, f64::max);
            let share = (weight / weight_sum).max(1e-3);
            let pool_apki = spec.apki * share;
            let lines = (p.bytes / 64).min(2 * llc_lines);
            (lines * 1000) as f64 / pool_apki
        })
        .fold(0.0, f64::max) as u64;
    let warmup = (3 * slowest_walk + 3_000_000).clamp(4_000_000, 120_000_000);
    let phase_cycle: u64 = spec
        .phases
        .iter()
        .map(|p| {
            if p.duration_instrs == u64::MAX {
                0
            } else {
                p.duration_instrs
            }
        })
        .sum();
    let measure = (2 * warmup).max(10_000_000).max(3 * phase_cycle);
    (warmup, measure)
}

/// Builds the workload bundle for registry app `app` under a
/// classification. `trace:` apps never reach here: [`Experiment::single`]
/// replays them.
///
/// # Errors
///
/// [`HarnessError::UnknownApp`] for unresolvable names (with a
/// did-you-mean suggestion).
fn app_bundle(app: &str, classification: Classification) -> Result<WorkloadBundle, HarnessError> {
    resolve_app(app)?;
    let model = AppModel::new(registry::spec(app));
    let pools = descriptors_for(&model, app, classification);
    Ok(model.bundle(pools))
}

// ---------------------------------------------------------------------------
// The Experiment builder
// ---------------------------------------------------------------------------

/// Shared warmup budget of multi-program mixes: enough for the mix's
/// caches and monitors to settle. Replaying a mix capture with this
/// warmup (and the recording's measurement budget) reproduces the
/// original statistics bit for bit.
pub const MIX_WARMUP_INSTRS: u64 = 6_000_000;

/// Default measurement budget of multi-program mixes (per core,
/// fixed-work), matching the Fig. 22 4-core configuration.
pub const MIX_MEASURE_INSTRS: u64 = 8_000_000;

/// Default RNG seed for the per-core trace streams of a mix.
const MIX_SEED: u64 = 0xC0FE;

/// Default RNG seed for parallel-app task schedules.
const PARALLEL_SEED: u64 = 0xBEEF;

/// Base *page* of core `core`'s address space in a multi-program mix:
/// processes are spaced 1 TB apart (far beyond any model's footprint) so
/// pages never collide across cores, as real virtual memory provides.
pub fn mix_base_page(core: usize) -> u64 {
    const TB: u64 = 1 << 40;
    (core as u64 + 1) * (TB / wp_mem::PAGE_BYTES)
}

/// What an [`Experiment`] runs and where.
///
/// The first three variants cover the paper's scenarios (single-app
/// figures, multi-program mixes, task-parallel apps); `Replay` re-attaches
/// recorded capture streams; `Bundles` accepts pre-built
/// [`WorkloadBundle`]s for bespoke models (tests, sweep-cache replays).
#[derive(Debug)]
enum Placement {
    /// One registry app alone on core 0.
    Single(String),
    /// A multi-program mix: one app per core, fixed-work (Appendix A).
    Mix(Vec<String>),
    /// A task-parallel app on every core under a scheduling policy
    /// (Sec. 3.4, Fig. 13).
    Parallel(ParallelSpec, SchedPolicy),
    /// Streams of a recorded `.wpt` capture, re-attached to cores.
    Replay {
        /// The capture file.
        trace: PathBuf,
        /// The one stream to attach to core 0, or `None` for every
        /// stream, each to its own core.
        stream: Option<u16>,
    },
    /// Pre-built workload bundles, one per core in order.
    Bundles(Vec<WorkloadBundle>),
}

/// Result of an [`Experiment`]: the run summary plus, for
/// [`Experiment::parallel`] runs, the task schedule that produced it and, when
/// [`Experiment::observe`] was set, the run's observability report.
#[derive(Debug, Clone)]
pub struct ExperimentRun {
    /// The simulation summary.
    pub summary: RunSummary,
    /// The task schedule (parallel placements only).
    pub schedule: Option<Schedule>,
    /// The observability report ([`Experiment::observe`] runs only).
    pub obs: Option<ObsReport>,
}

/// The time-series artifacts of one observed run: the driver's pool
/// occupancy timeline and the scheme's reconfiguration log. Collected by
/// reading scheme state — never by mutating it — so an observed run's
/// [`RunSummary`] is bit-identical to an unobserved one.
#[derive(Debug, Clone)]
pub struct ObsReport {
    /// Per-pool occupancy samples, one group every
    /// [`sample_every`](wp_obs::ObsConfig::sample_every) events.
    pub timeline: Vec<wp_obs::PoolSample>,
    /// One entry per runtime reallocation the scheme performed.
    pub reconfigs: Vec<wp_obs::ReconfigEvent>,
}

impl ObsReport {
    /// The report as JSONL: `pool_sample` and `reconfig` lines merged in
    /// cycle order, closed by one `metrics` line carrying the scheme name
    /// and the metrics-registry snapshot (all zeros unless `WP_OBS=1` /
    /// [`wp_obs::enable`]).
    pub fn to_jsonl(&self, scheme: &str) -> String {
        let mut lines: Vec<(u64, String)> = self
            .timeline
            .iter()
            .map(|s| (s.cycle, s.to_json_line()))
            .collect();
        for ev in &self.reconfigs {
            for line in ev.to_json_lines() {
                lines.push((ev.cycle, line));
            }
        }
        lines.sort_by_key(|(cycle, _)| *cycle);
        let mut out = String::new();
        for (_, line) in lines {
            out.push_str(&line);
            out.push('\n');
        }
        out.push_str(&format!(
            "{{\"type\":\"metrics\",\"scheme\":{},\"registry\":{}}}\n",
            wp_obs::json::quote(scheme),
            wp_obs::snapshot().to_json(),
        ));
        out
    }
}

/// A fully specified experiment: the one entry point the figure binaries,
/// examples, sweep engine, `trace_tool`, and tests all share.
///
/// Defaults depend on the placement: single-app runs get the app's
/// [`run_budget`] and the [`four_core_config`]; mixes get the shared
/// [`MIX_WARMUP_INSTRS`]/[`MIX_MEASURE_INSTRS`] budgets; parallel apps get
/// the [`sixteen_core_config`] and run their (finite) task traces to
/// exhaustion; replays and bundles run raw to exhaustion. Every placement
/// accepts [`capture_to`](Self::capture_to) — parallel runs record one
/// stream per core exactly like mixes, and replay bit-identically.
///
/// ```no_run
/// use whirlpool_repro::harness::{Experiment, SchemeKind};
///
/// // Capture a run...
/// let live = Experiment::single(SchemeKind::Whirlpool, "delaunay")
///     .measure(1_000_000)
///     .capture_to("/tmp/dt.wpt")
///     .run()
///     .unwrap();
/// // ...and replay it through another scheme.
/// let replayed = Experiment::single(SchemeKind::Jigsaw, "trace:/tmp/dt.wpt")
///     .run()
///     .unwrap();
/// assert!(replayed.cores[0].instructions > 0 && live.cores[0].instructions > 0);
/// ```
///
/// A multi-program mix, captured, on one line per concern:
///
/// ```no_run
/// use whirlpool_repro::harness::{Experiment, SchemeKind};
///
/// let out = Experiment::mix(SchemeKind::Whirlpool, &["delaunay", "mcf"])
///     .measure(2_000_000)
///     .capture_to("/tmp/mix.wpt")
///     .run()
///     .unwrap();
/// assert_eq!(out.cores.len(), 4);
/// ```
#[derive(Debug)]
pub struct Experiment {
    kind: SchemeKind,
    placement: Placement,
    classification: Option<Classification>,
    warmup: Option<u64>,
    measure: Option<u64>,
    sys: Option<SystemConfig>,
    seed: Option<u64>,
    capture_to: Option<PathBuf>,
    obs: Option<wp_obs::ObsConfig>,
    cancel: Option<CancelToken>,
}

impl Experiment {
    fn with_placement(kind: SchemeKind, placement: Placement) -> Self {
        Self {
            kind,
            placement,
            classification: None,
            warmup: None,
            measure: None,
            sys: None,
            seed: None,
            capture_to: None,
            obs: None,
            cancel: None,
        }
    }

    /// One app (registry name or `trace:<path>`) alone on core 0 of the
    /// 4-core chip, with the app's [`run_budget`]. A `trace:<path>` app is
    /// [`replay(kind, path, 0)`](Self::replay).
    pub fn single(kind: SchemeKind, app: &str) -> Self {
        match registry::trace_path(app) {
            Some(path) => Self::replay(kind, path, 0),
            None => Self::with_placement(kind, Placement::Single(app.to_string())),
        }
    }

    /// A multi-program mix, one app per core (registry names or `trace:`
    /// URIs), fixed-work, with the shared mix budgets.
    pub fn mix(kind: SchemeKind, apps: &[&str]) -> Self {
        Self::with_placement(
            kind,
            Placement::Mix(apps.iter().map(|a| a.to_string()).collect()),
        )
    }

    /// A task-parallel app under a scheduling policy on the 16-core chip
    /// — the four Fig. 13 configurations are `(SNucaLru, WorkStealing)`,
    /// `(Jigsaw, WorkStealing)`, `(Jigsaw, Paws)`, `(Whirlpool, Paws)`.
    /// Task traces are finite, so the run goes to exhaustion.
    pub fn parallel(kind: SchemeKind, spec: ParallelSpec, policy: SchedPolicy) -> Self {
        Self::with_placement(kind, Placement::Parallel(spec, policy))
    }

    /// Replays stream `stream` of a recorded capture on core 0. The
    /// capture's other streams are stepped over, not checked (see
    /// [`run`](Self::run)).
    pub fn replay(kind: SchemeKind, trace: impl Into<PathBuf>, stream: u16) -> Self {
        Self::with_placement(
            kind,
            Placement::Replay {
                trace: trace.into(),
                stream: Some(stream),
            },
        )
    }

    /// Replays every stream of a recorded capture, each on its own core
    /// in stream order — the way to replay a whole mix or parallel
    /// capture.
    pub fn replay_all(kind: SchemeKind, trace: impl Into<PathBuf>) -> Self {
        Self::with_placement(
            kind,
            Placement::Replay {
                trace: trace.into(),
                stream: None,
            },
        )
    }

    /// Pre-built workload bundles, attached to cores 0..n in order. For
    /// bespoke models (tests) and cache-backed replays (the sweep
    /// engine); bundles carry their own pools, so
    /// [`classification`](Self::classification) is ignored.
    pub fn bundles(kind: SchemeKind, bundles: Vec<WorkloadBundle>) -> Self {
        Self::with_placement(kind, Placement::Bundles(bundles))
    }

    /// Overrides the classification (default: the scheme's
    /// [`SchemeKind::default_classification`]). For mixes it applies to
    /// every registry app; for traces and replays, [`Classification::None`]
    /// strips the recorded pools and anything else restores them.
    #[must_use]
    pub fn classification(mut self, c: Classification) -> Self {
        self.classification = Some(c);
        self
    }

    /// Overrides the warmup budget (instructions).
    ///
    /// When replaying a `trace:` app, keep warmup + measure within the
    /// recording's budgets: a trace that runs dry during warmup reports
    /// its warmup-window statistics as the counted result (see
    /// [`MultiCoreSim::run_with_warmup`]).
    #[must_use]
    pub fn warmup(mut self, instrs: u64) -> Self {
        self.warmup = Some(instrs);
        self
    }

    /// Overrides the measurement budget (instructions, per core).
    #[must_use]
    pub fn measure(mut self, instrs: u64) -> Self {
        self.measure = Some(instrs);
        self
    }

    /// Overrides the system configuration (default: [`four_core_config`],
    /// or [`sixteen_core_config`] for parallel placements).
    #[must_use]
    pub fn system(mut self, sys: SystemConfig) -> Self {
        self.sys = Some(sys);
        self
    }

    /// Overrides the RNG seed: the per-core trace seeds of a mix
    /// (`seed + core`) and the task-schedule seed of a parallel run.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Captures the run's full event stream (warmup included, one stream
    /// per core) to a `.wpt` file — uniformly across placements,
    /// including parallel runs.
    #[must_use]
    pub fn capture_to(mut self, path: impl Into<PathBuf>) -> Self {
        self.capture_to = Some(path.into());
        self
    }

    /// Turns on the run's observability probes: the driver samples every
    /// pool's occupancy per [`wp_obs::ObsConfig::sample_every`] events and
    /// the scheme's reconfiguration log is collected, both surfaced as
    /// [`ExperimentRun::obs`] (and written as JSONL when the config names
    /// an output path). Probes read scheme state without mutating it, so
    /// the [`RunSummary`] stays bit-identical to an unobserved run.
    #[must_use]
    pub fn observe(mut self, obs: wp_obs::ObsConfig) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Attaches a cooperative [`CancelToken`]: the run checks it before
    /// building workloads (the Capture/Profile/Classify work) and again
    /// before launching the simulator, returning
    /// [`HarnessError::Cancelled`] if it has fired. This is the hook the
    /// experiment service's `cancel` verb and shutdown drain use; batch
    /// runs never set it and pay nothing.
    #[must_use]
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The system this experiment will run on (the override or the
    /// placement's default).
    pub fn system_config(&self) -> SystemConfig {
        match (&self.sys, &self.placement) {
            (Some(sys), _) => sys.clone(),
            (None, Placement::Parallel(..)) => sixteen_core_config(),
            (None, _) => four_core_config(),
        }
    }

    /// The `(warmup, measure)` budgets this experiment will use.
    pub fn budgets(&self) -> (u64, u64) {
        let (dw, dm) = match &self.placement {
            // An unresolvable name gets placeholder budgets; the run
            // itself reports the typed UnknownApp error.
            Placement::Single(app) if resolve_app(app).is_err() => (0, u64::MAX),
            Placement::Single(app) => run_budget(app),
            Placement::Mix(_) => (MIX_WARMUP_INSTRS, MIX_MEASURE_INSTRS),
            // Finite task/recorded/bespoke streams: run to exhaustion.
            Placement::Parallel(..) | Placement::Replay { .. } | Placement::Bundles(_) => {
                (0, u64::MAX)
            }
        };
        (self.warmup.unwrap_or(dw), self.measure.unwrap_or(dm))
    }

    /// Runs the experiment and returns the summary.
    ///
    /// # Errors
    ///
    /// Any [`HarnessError`]: unknown app names, over-subscribed
    /// floorplans, colliding trace address spaces, missing/corrupt trace
    /// files, capture I/O.
    ///
    /// A replay validates its capture in the pass that simulates it, with
    /// no scan first. Opening it reads the stream definitions by a frame
    /// walk that decodes no chunk ([`wp_trace::stream_table`] for
    /// [`replay_all`](Self::replay_all), which also checks the `End`
    /// block; [`wp_trace::stream_defs`] up to the one stream of
    /// [`replay`](Self::replay)). Each replayed stream's reader then
    /// checks the block framing, every chunk of its stream and that
    /// stream's `End` totals, and drains whatever tail the budgets left
    /// unread ([`wp_sim::TraceWorkload`]). So a damaged stream fails its
    /// replay however short the run. A one-stream replay does not check
    /// the chunks of the streams it leaves out; `trace_tool replay`
    /// decodes those once per invocation, before its schemes run. A
    /// failed replay's error, `trace:` single apps included, is the one
    /// [`TraceInfo::scan`] reports for the file; the scan runs on this
    /// error path only.
    pub fn run(self) -> Result<RunSummary, HarnessError> {
        self.run_full().map(|r| r.summary)
    }

    /// [`run`](Self::run), also returning the task schedule of a parallel
    /// placement.
    ///
    /// # Errors
    ///
    /// As for [`run`](Self::run).
    pub fn run_full(self) -> Result<ExperimentRun, HarnessError> {
        let sys = self.system_config();
        let kind = self.kind;
        self.run_with_scheme(make_scheme(kind, &sys))
            .map(|(run, _)| run)
    }

    /// Runs with a caller-provided scheme instance and hands it back for
    /// post-run introspection (occupancy maps, reconfiguration history).
    /// Construct the scheme against [`system_config`](Self::system_config)
    /// so the scheme and the simulated chip agree.
    ///
    /// # Errors
    ///
    /// As for [`run`](Self::run).
    pub fn run_with_scheme<S: LlcScheme>(
        self,
        scheme: S,
    ) -> Result<(ExperimentRun, S), HarnessError> {
        let replayed = match &self.placement {
            Placement::Replay { trace, .. } => Some(trace.clone()),
            _ => None,
        };
        // A failed replay reports the damage as a full scan words it.
        self.run_attached(scheme).map_err(|e| match (e, replayed) {
            (HarnessError::Trace(e), Some(path)) => {
                HarnessError::Trace(TraceInfo::scan_error(&path, e))
            }
            (e, _) => e,
        })
    }

    fn run_attached<S: LlcScheme>(self, scheme: S) -> Result<(ExperimentRun, S), HarnessError> {
        let sys = self.system_config();
        let (warmup, measure) = self.budgets();
        let classification = self
            .classification
            .unwrap_or_else(|| self.kind.default_classification());
        let cores = sys.floorplan.num_cores();
        let cancel = self.cancel;
        if let Some(tok) = &cancel {
            tok.check()?;
        }
        let mut sched = None;

        // Build the per-core attachments. This is where trace stream
        // tables are read, mix traces scanned, capture replays opened,
        // and (for WhirlTool classifications) profiling happens, so it is
        // the Capture phase of the run's timing breakdown
        // (Profile/Classify nest inside it and also count toward their
        // own phases).
        let _capture = wp_obs::span(wp_obs::Phase::Capture);
        let attachments: Vec<(CoreId, WorkloadBundle)> = match self.placement {
            Placement::Single(app) => {
                vec![(CoreId(0), app_bundle(&app, classification)?)]
            }
            Placement::Mix(apps) => {
                if apps.len() > cores {
                    return Err(HarnessError::TooManyWorkloads {
                        workloads: apps.len(),
                        cores,
                    });
                }
                let seed = self.seed.unwrap_or(MIX_SEED);
                let mut out = Vec::with_capacity(apps.len());
                for (i, app) in apps.iter().enumerate() {
                    out.push((CoreId(i as u16), mix_bundle(app, i, classification, seed)?));
                }
                check_mix_address_spaces(&apps, &out)?;
                out
            }
            Placement::Parallel(spec, policy) => {
                let app = Arc::new(ParallelApp::new(spec));
                let s = schedule(&app, cores, policy, self.seed.unwrap_or(PARALLEL_SEED));
                let pc = match classification {
                    Classification::None => ParallelClassification::None,
                    _ => ParallelClassification::PerPartition,
                };
                let bundles = core_workloads(&app, &s, pc);
                sched = Some(s);
                bundles
                    .into_iter()
                    .enumerate()
                    .map(|(c, b)| (CoreId(c as u16), b))
                    .collect()
            }
            Placement::Replay { trace, stream } => {
                let with_pools = !matches!(classification, Classification::None);
                // Each bundle is built from its stream's definition, read
                // by one frame walk: over the whole file for every stream,
                // else only up to the replayed stream's definition.
                let table = match stream {
                    None => wp_trace::stream_table(&trace)?,
                    Some(k) => {
                        let defs = wp_trace::stream_defs(&trace, k)?;
                        let meta = defs.into_iter().find(|m| m.id == k).ok_or_else(|| {
                            TraceError::Corrupt(format!("stream {k} is not defined in the trace"))
                        })?;
                        vec![meta]
                    }
                };
                if table.is_empty() {
                    return Err(TraceError::Corrupt(format!(
                        "{} defines no streams",
                        trace.display()
                    ))
                    .into());
                }
                if table.len() > cores {
                    return Err(HarnessError::TooManyWorkloads {
                        workloads: table.len(),
                        cores,
                    });
                }
                // Every stream's reader shares one image of the file.
                let image = Arc::new(wp_trace::TraceData::open(&trace).map_err(TraceError::from)?);
                let mut out = Vec::with_capacity(table.len());
                for (c, meta) in table.iter().enumerate() {
                    out.push((
                        CoreId(c as u16),
                        wp_sim::stream_bundle(&trace, &image, meta, with_pools)?,
                    ));
                }
                out
            }
            Placement::Bundles(bundles) => {
                if bundles.len() > cores {
                    return Err(HarnessError::TooManyWorkloads {
                        workloads: bundles.len(),
                        cores,
                    });
                }
                bundles
                    .into_iter()
                    .enumerate()
                    .map(|(c, b)| (CoreId(c as u16), b))
                    .collect()
            }
        };

        drop(_capture);

        // Second cancellation checkpoint: after the (potentially long)
        // workload build, before the simulator runs.
        if let Some(tok) = &cancel {
            tok.check()?;
        }

        // One uniform launch path: capture, attach, run, finalize.
        let mut cfg = wp_sim::SimConfig::new(sys);
        if let Some(path) = self.capture_to {
            cfg = cfg.capture_to(path);
        }
        let obs_cfg = self.obs;
        if let Some(o) = obs_cfg.clone() {
            cfg = cfg.observe(o);
        }
        let mut sim = MultiCoreSim::with_config(cfg, scheme)?;
        for (core, bundle) in attachments {
            sim.attach(core, bundle);
        }
        let summary = sim.run_with_warmup(warmup, measure);
        sim.finish_workloads()?;
        sim.finish_capture()?;
        let timeline = if obs_cfg.is_some() {
            sim.take_timeline()
        } else {
            Vec::new()
        };
        let scheme = sim.into_scheme();
        let accesses: u64 = summary
            .cores
            .iter()
            .map(|c| c.llc_accesses + c.llc_bypasses)
            .sum();
        let misses: u64 = summary
            .cores
            .iter()
            .map(|c| c.llc_misses + c.llc_bypasses)
            .sum();
        wp_obs::record_scheme(&summary.scheme, accesses, misses);
        let obs = match obs_cfg {
            Some(o) => {
                let report = ObsReport {
                    timeline,
                    reconfigs: scheme.reconfig_log(),
                };
                if let Some(path) = &o.out {
                    std::fs::write(path, report.to_jsonl(&summary.scheme))
                        .map_err(|e| HarnessError::Trace(TraceError::Io(e)))?;
                }
                Some(report)
            }
            None => None,
        };
        Ok((
            ExperimentRun {
                summary,
                schedule: sched,
                obs,
            },
            scheme,
        ))
    }
}

/// Builds core `core`'s workload bundle for a multi-program mix: a
/// registry model instantiated in that core's [disjoint address
/// space](mix_base_page), or a `trace:<path>` recording (which plays back
/// in the address space it was recorded in).
fn mix_bundle(
    app: &str,
    core: usize,
    classification: Classification,
    seed: u64,
) -> Result<WorkloadBundle, HarnessError> {
    resolve_app(app)?;
    if let Some(path) = registry::trace_path(app) {
        let with_pools = !matches!(classification, Classification::None);
        let mut b = wp_sim::trace_bundle(path, 0, with_pools)?;
        b.name = format!("{}.core{core}", b.name);
        return Ok(b);
    }
    let model = AppModel::new_with_base(registry::spec(app), mix_base_page(core));
    let pools = descriptors_for(&model, app, classification);
    Ok(WorkloadBundle {
        trace: Box::new(model.trace_seeded(seed + core as u64)),
        pools,
        name: format!("{app}.core{core}"),
    })
}

/// The inclusive page span `(lo, hi)` a mix workload occupies, or `None`
/// when it cannot be determined (an empty trace stream).
///
/// # Errors
///
/// A trace file that fails the scan (truncation, bit flips) is reported
/// here, at build time, before anything simulates. The scan is the price
/// of the exact line span, which only a full decode yields.
fn mix_page_span(
    app: &str,
    core: usize,
    bundle: &WorkloadBundle,
) -> Result<Option<(u64, u64)>, HarnessError> {
    let pool_span = |bundle: &WorkloadBundle| {
        let pages = bundle
            .pools
            .iter()
            .flat_map(|p| p.pages.iter().map(|p| p.0));
        Some((pages.clone().min()?, pages.max()?))
    };
    if let Some(path) = registry::trace_path(app) {
        // The stream's recorded line span is exact — it covers every
        // access, including ones outside the recorded pool tables (the
        // pools alone could under-cover and let aliasing traces through).
        if let Some((lo, hi)) = TraceInfo::scan(path)?
            .streams
            .first()
            .and_then(|s| s.line_span)
        {
            return Ok(Some((lo / LINES_PER_PAGE, hi / LINES_PER_PAGE)));
        }
        // An empty stream: fall back to the recorded pools, if any.
        return Ok(pool_span(bundle));
    }
    if !bundle.pools.is_empty() {
        return Ok(pool_span(bundle));
    }
    // A registry model without pools: its heap occupies its 1 TB slot
    // starting at the core's base page. Bound the span by the footprint
    // plus per-pool page-rounding slack.
    let spec = registry::spec(app);
    let base = mix_base_page(core);
    let pages = spec.footprint() / wp_mem::PAGE_BYTES + spec.pools.len() as u64 + 1;
    Ok(Some((base, base + pages)))
}

/// Rejects mixes whose workloads occupy overlapping page ranges. Registry
/// models are spaced 1 TB apart by construction, but `trace:` recordings
/// replay in their *recorded* address spaces — two traces recorded at the
/// same base (or a trace recorded in a slot a registry app now occupies)
/// would silently alias pages across cores.
fn check_mix_address_spaces(
    apps: &[String],
    attachments: &[(CoreId, WorkloadBundle)],
) -> Result<(), HarnessError> {
    let spans: Vec<Option<(u64, u64)>> = attachments
        .iter()
        .enumerate()
        .map(|(i, (_, b))| mix_page_span(&apps[i], i, b))
        .collect::<Result<_, _>>()?;
    for i in 0..spans.len() {
        for j in i + 1..spans.len() {
            // Only pairs involving a trace can collide; registry models
            // are provably disjoint (and their spans are estimates).
            if registry::trace_path(&apps[i]).is_none() && registry::trace_path(&apps[j]).is_none()
            {
                continue;
            }
            if let (Some(a), Some(b)) = (spans[i], spans[j]) {
                if a.0 <= b.1 && b.0 <= a.1 {
                    return Err(HarnessError::AddressSpaceCollision {
                        core_a: i,
                        app_a: apps[i].clone(),
                        core_b: j,
                        app_b: apps[j].clone(),
                    });
                }
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Reporting helpers
// ---------------------------------------------------------------------------

/// Execution-time proxy for a single-app run: core 0's cycles.
pub fn exec_cycles(s: &RunSummary) -> f64 {
    s.cores[0].cycles
}

/// Execution-time proxy for a parallel run: the slowest core (makespan).
pub fn makespan_cycles(s: &RunSummary) -> f64 {
    s.cores.iter().map(|c| c.cycles).fold(0.0, f64::max)
}

/// Speedup of `new` over `base` in percent (positive = faster).
pub fn speedup_pct(base_cycles: f64, new_cycles: f64) -> f64 {
    (base_cycles / new_cycles - 1.0) * 100.0
}

/// Renders a bank-occupancy map as an ASCII chip diagram (Figs. 3–5):
/// each tile shows the label of its dominant owner.
pub fn render_occupancy(sys: &SystemConfig, occupancy: &[(usize, String, f64)]) -> String {
    let mesh = sys.floorplan.mesh();
    let mut owner: Vec<(String, f64)> = vec![(String::from("."), 0.0); mesh.tiles()];
    for (bank, label, frac) in occupancy {
        if *frac > owner[*bank].1 {
            owner[*bank] = (label.clone(), *frac);
        }
    }
    let width = owner
        .iter()
        .map(|(l, _)| l.len().min(9))
        .max()
        .unwrap_or(1)
        .max(1);
    let mut s = String::new();
    for y in 0..mesh.height() {
        for x in 0..mesh.width() {
            let idx = mesh.index_of(wp_noc::Coord::new(x, y));
            let (label, frac) = &owner[idx];
            let cell = if *frac == 0.0 {
                "-".to_string()
            } else {
                label.chars().take(9).collect()
            };
            s.push_str(&format!("{cell:>w$} ", w = width));
        }
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_schemes_instantiate() {
        let sys = four_core_config();
        for kind in SchemeKind::FIG10 {
            let s = make_scheme(kind, &sys);
            assert!(!s.name().is_empty());
        }
    }

    #[test]
    fn single_app_run_produces_stats() {
        let out = Experiment::single(SchemeKind::SNucaLru, "delaunay")
            .classification(Classification::None)
            .measure(500_000)
            .run()
            .unwrap();
        // Fixed-work freezes at the first event crossing the target, so a
        // single gap of overshoot is expected.
        assert!(out.cores[0].instructions >= 500_000);
        assert!(out.cores[0].instructions < 501_000);
        assert!(out.cores[0].llc_apki() > 10.0);
        assert!(out.energy.total_nj() > 0.0);
    }

    #[test]
    fn whirlpool_gets_manual_pools() {
        let out = Experiment::single(SchemeKind::Whirlpool, "delaunay")
            .classification(Classification::Manual)
            .measure(500_000)
            .run()
            .unwrap();
        assert_eq!(out.scheme, "Whirlpool");
        assert!(out.cores[0].llc_accesses > 0);
    }

    #[test]
    fn whirltool_classification_runs() {
        let assignment = classify_with_whirltool("delaunay", 3, true);
        assert!(!assignment.is_empty());
        let clusters: std::collections::HashSet<usize> = assignment.values().copied().collect();
        assert!(clusters.len() <= 3);
    }

    #[test]
    fn occupancy_render_has_grid_shape() {
        let sys = four_core_config();
        let occ = vec![(0usize, "points".to_string(), 0.5)];
        let s = render_occupancy(&sys, &occ);
        assert_eq!(s.lines().count(), 5);
        assert!(s.contains("points"));
    }

    #[test]
    fn speedup_math() {
        assert!((speedup_pct(120.0, 100.0) - 20.0).abs() < 1e-9);
        assert!(speedup_pct(100.0, 120.0) < 0.0);
    }

    #[test]
    fn scheme_parse_accepts_labels_and_aliases() {
        for kind in SchemeKind::ALL {
            assert_eq!(SchemeKind::parse(kind.label()), Some(kind));
            assert_eq!(SchemeKind::parse(&kind.label().to_lowercase()), Some(kind));
        }
        assert_eq!(SchemeKind::parse("snuca-lru"), Some(SchemeKind::SNucaLru));
        assert_eq!(
            SchemeKind::parse("SNUCA_DRRIP"),
            Some(SchemeKind::SNucaDrrip)
        );
        assert_eq!(
            SchemeKind::parse("whirlpool nobypass"),
            Some(SchemeKind::WhirlpoolNoBypass)
        );
        assert_eq!(SchemeKind::parse("zcache"), None);
    }

    #[test]
    fn scheme_resolve_suggests_labels() {
        assert_eq!(SchemeKind::resolve("Jigsaw").unwrap(), SchemeKind::Jigsaw);
        match SchemeKind::resolve("whirlpol") {
            Err(HarnessError::UnknownScheme { suggestion, .. }) => {
                assert_eq!(suggestion.as_deref(), Some("Whirlpool"));
            }
            other => panic!("expected UnknownScheme, got {other:?}"),
        }
        // Nothing close: no suggestion, but still the typed variant.
        match SchemeKind::resolve("zcache") {
            Err(HarnessError::UnknownScheme { suggestion, .. }) => assert!(suggestion.is_none()),
            other => panic!("expected UnknownScheme, got {other:?}"),
        }
    }

    #[test]
    fn app_resolve_suggests_registry_names() {
        assert!(resolve_app("delaunay").is_ok());
        assert!(resolve_app("trace:/tmp/whatever.wpt").is_ok());
        match resolve_app("delauny") {
            Err(HarnessError::UnknownApp { suggestion, .. }) => {
                assert_eq!(suggestion.as_deref(), Some("delaunay"));
            }
            other => panic!("expected UnknownApp, got {other:?}"),
        }
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("abc", "abd"), 1);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
    }

    #[test]
    fn default_classification_matches_pool_use() {
        assert_eq!(
            SchemeKind::Whirlpool.default_classification(),
            Classification::Manual
        );
        assert_eq!(
            SchemeKind::Jigsaw.default_classification(),
            Classification::None
        );
    }

    #[test]
    fn experiment_defaults_follow_placement() {
        let single = Experiment::single(SchemeKind::SNucaLru, "delaunay");
        assert_eq!(single.budgets(), run_budget("delaunay"));
        assert_eq!(single.system_config().floorplan.num_cores(), 4);

        let mix = Experiment::mix(SchemeKind::SNucaLru, &["delaunay", "mcf"]);
        assert_eq!(mix.budgets(), (MIX_WARMUP_INSTRS, MIX_MEASURE_INSTRS));

        let spec = wp_workloads::parallel::parallel_apps(16, 1)
            .into_iter()
            .next()
            .unwrap();
        let par = Experiment::parallel(SchemeKind::Whirlpool, spec, SchedPolicy::Paws);
        assert_eq!(par.budgets(), (0, u64::MAX));
        assert_eq!(par.system_config().floorplan.num_cores(), 16);
    }

    #[test]
    fn single_capture_then_replay_matches() {
        let path =
            std::env::temp_dir().join(format!("wp-harness-capture-{}.wpt", std::process::id()));
        let live = Experiment::single(SchemeKind::SNucaLru, "delaunay")
            .warmup(100_000)
            .measure(200_000)
            .capture_to(&path)
            .run()
            .unwrap();
        let uri = format!("trace:{}", path.display());
        let replayed = Experiment::single(SchemeKind::SNucaLru, &uri)
            .warmup(100_000)
            .measure(200_000)
            .run()
            .unwrap();
        assert_eq!(live.to_json(), replayed.to_json());
        // The Replay placement drives the same stream to the same result.
        let via_replay = Experiment::replay(SchemeKind::SNucaLru, &path, 0)
            .warmup(100_000)
            .measure(200_000)
            .classification(Classification::None)
            .run()
            .unwrap();
        assert_eq!(live.to_json(), via_replay.to_json());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn trace_single_app_is_a_stream_zero_replay() {
        let path =
            std::env::temp_dir().join(format!("wp-harness-single-{}.wpt", std::process::id()));
        Experiment::single(SchemeKind::Whirlpool, "delaunay")
            .warmup(100_000)
            .measure(200_000)
            .capture_to(&path)
            .run()
            .unwrap();
        let uri = format!("trace:{}", path.display());
        let both = || {
            let single = Experiment::single(SchemeKind::Whirlpool, &uri).run();
            let replay = Experiment::replay(SchemeKind::Whirlpool, &path, 0).run();
            (single, replay)
        };
        let (single, replay) = both();
        assert_eq!(single.unwrap().to_json(), replay.unwrap().to_json());
        // A cut capture fails both with the same text.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let (single, replay) = both();
        let single = single.unwrap_err().to_string();
        assert_eq!(single, replay.unwrap_err().to_string());
        assert_eq!(single, TraceInfo::scan(&path).unwrap_err().to_string());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_trace_file_is_an_error_not_a_panic() {
        match Experiment::single(SchemeKind::SNucaLru, "trace:/nonexistent/x.wpt").run() {
            Err(HarnessError::Trace(_)) => {}
            other => panic!("expected a Trace error, got {other:?}"),
        }
    }

    #[test]
    fn unknown_app_is_a_typed_error_everywhere() {
        assert!(matches!(
            Experiment::single(SchemeKind::SNucaLru, "doom").run(),
            Err(HarnessError::UnknownApp { .. })
        ));
        assert!(matches!(
            Experiment::mix(SchemeKind::SNucaLru, &["delaunay", "doom"]).run(),
            Err(HarnessError::UnknownApp { .. })
        ));
        assert!(matches!(
            app_bundle("doom", Classification::None),
            Err(HarnessError::UnknownApp { .. })
        ));
    }

    #[test]
    fn oversubscribed_mix_is_a_typed_error() {
        let apps = ["delaunay"; 5];
        match Experiment::mix(SchemeKind::SNucaLru, &apps).run() {
            Err(HarnessError::TooManyWorkloads { workloads, cores }) => {
                assert_eq!((workloads, cores), (5, 4));
            }
            other => panic!("expected TooManyWorkloads, got {other:?}"),
        }
    }

    #[test]
    fn run_with_scheme_hands_the_scheme_back() {
        let sys = four_core_config();
        let (run, scheme) = Experiment::single(SchemeKind::Whirlpool, "delaunay")
            .measure(300_000)
            .system(sys.clone())
            .run_with_scheme(make_scheme(SchemeKind::Whirlpool, &sys))
            .unwrap();
        assert!(run.summary.cores[0].instructions >= 300_000);
        assert!(run.schedule.is_none());
        // The returned scheme carries the run's end state.
        assert!(!scheme.bank_occupancy().is_empty());
    }

    #[test]
    fn mix_address_spaces_are_1tb_apart_and_disjoint() {
        // Regression test for the run_mix spacing: `mix_base_page` is a
        // *page* id, so consecutive cores' byte bases must sit exactly
        // 1 TB apart, and no two per-core bundles' pool page ranges may
        // overlap.
        const TB: u64 = 1 << 40;
        for core in 0..16 {
            let base_bytes = mix_base_page(core) * wp_mem::PAGE_BYTES;
            assert_eq!(base_bytes, (core as u64 + 1) * TB, "core {core} base");
        }
        // The largest-footprint apps in the registry, Whirlpool-classified
        // so every pool's pages are present in the bundles.
        let apps = ["MIS", "lbm", "mcf", "sort"];
        let spans: Vec<(u64, u64)> = apps
            .iter()
            .enumerate()
            .map(|(i, app)| {
                let b = mix_bundle(app, i, Classification::Manual, MIX_SEED).unwrap();
                assert!(!b.pools.is_empty(), "{app} has pools");
                let pages = b.pools.iter().flat_map(|p| p.pages.iter());
                let lo = pages.clone().map(|p| p.0).min().unwrap();
                let hi = pages.map(|p| p.0).max().unwrap();
                assert!(lo >= mix_base_page(i), "{app} starts in its region");
                (lo, hi)
            })
            .collect();
        for (i, a) in spans.iter().enumerate() {
            for (j, b) in spans.iter().enumerate().skip(i + 1) {
                assert!(
                    a.1 < b.0 || b.1 < a.0,
                    "core {i} pages {a:?} overlap core {j} pages {b:?}"
                );
            }
        }
    }

    #[test]
    fn colliding_trace_mix_is_rejected_by_core() {
        let path =
            std::env::temp_dir().join(format!("wp-harness-collide-{}.wpt", std::process::id()));
        Experiment::single(SchemeKind::SNucaLru, "delaunay")
            .warmup(50_000)
            .measure(100_000)
            .capture_to(&path)
            .run()
            .unwrap();
        let uri = format!("trace:{}", path.display());
        match Experiment::mix(SchemeKind::SNucaLru, &[&uri, &uri]).run() {
            Err(HarnessError::AddressSpaceCollision { core_a, core_b, .. }) => {
                assert_eq!((core_a, core_b), (0, 1));
            }
            other => panic!("expected AddressSpaceCollision, got {other:?}"),
        }
        // The same trace next to a registry app in a *different* slot is
        // fine (the recording lives near page 16, far below 1 TB).
        Experiment::mix(SchemeKind::SNucaLru, &[&uri, "mcf"])
            .measure(100_000)
            .run()
            .unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn harness_errors_render_one_line() {
        for e in [
            HarnessError::UnknownApp {
                name: "delauny".into(),
                suggestion: Some("delaunay".into()),
            },
            HarnessError::UnknownScheme {
                name: "x".into(),
                suggestion: None,
            },
            HarnessError::TooManyWorkloads {
                workloads: 5,
                cores: 4,
            },
            HarnessError::AddressSpaceCollision {
                core_a: 0,
                app_a: "a".into(),
                core_b: 1,
                app_b: "b".into(),
            },
            HarnessError::Trace(TraceError::BadMagic),
            HarnessError::Scenario("tenant 'a' departs before it arrives".into()),
        ] {
            let msg = e.to_string();
            assert!(!msg.is_empty() && !msg.contains('\n'), "{msg:?}");
        }
    }
}
