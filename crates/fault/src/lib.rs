//! Seeded, deterministic fault injection for the Whirlpool stack.
//!
//! The rest of the workspace threads *probes* — cheap call sites like
//! `wp_fault::fire(FaultPoint::ReaderBitflip)` — through its failure
//! surfaces: the trace reader, the prefetch/decode thread, sweep and
//! daemon workers, and the serve socket. Each probe is a single relaxed
//! atomic load when no fault is armed, so the layer costs nothing
//! measurable in production builds (it is always compiled in; there is
//! no feature flag to forget).
//!
//! A fault *plan* arms one or more points, either from the environment:
//!
//! ```text
//! WP_FAULT=<arm>[,<arm>...]:<seed>
//! arm     = <point>[@<occurrence>][=<millis>]
//! ```
//!
//! or programmatically via [`FaultPlan::parse`] + [`install`]. Points
//! are named `reader-io`, `reader-truncate`, `reader-bitflip`,
//! `prefetch-panic`, `prefetch-stall`, `worker-panic`, `worker-slow`,
//! `sock-drop`, and `sock-slow`. `@N` fires the arm on the N-th probe
//! of that point (1-based); when omitted, the occurrence is derived
//! deterministically from the seed, so `WP_FAULT=worker-panic:7`
//! reproduces the same failure on every run. `=M` sets the injected
//! delay in milliseconds for the stall/slow points.
//!
//! Every arm is **one-shot**: after it fires it disarms. That is what
//! makes the recovery proof work — the retry, re-capture, or follow-up
//! request that the hardened path issues runs fault-free and must
//! converge to byte-identical output.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard, Once};

/// An injection point threaded through the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPoint {
    /// Trace reader: surface an injected I/O error on a block read.
    ReaderIo,
    /// Trace reader: surface a truncated-file error on a block read.
    ReaderTruncate,
    /// Trace reader: surface a CRC mismatch on chunk N, as a flipped
    /// payload bit would.
    ReaderBitflip,
    /// Prefetch/decode thread: panic mid-decode.
    PrefetchPanic,
    /// Prefetch/decode thread: stall for the arm's delay.
    PrefetchStall,
    /// Sweep/serve worker: panic mid-job.
    WorkerPanic,
    /// Sweep/serve worker: sleep for the arm's delay (composes with the
    /// daemon's per-job wall-clock timeout).
    WorkerSlow,
    /// Serve socket: drop the connection mid-frame.
    SockDrop,
    /// Serve client: stall for the arm's delay before reading a frame.
    SockSlow,
}

impl FaultPoint {
    /// Every injection point, in wire-name order.
    pub const ALL: [FaultPoint; 9] = [
        FaultPoint::ReaderIo,
        FaultPoint::ReaderTruncate,
        FaultPoint::ReaderBitflip,
        FaultPoint::PrefetchPanic,
        FaultPoint::PrefetchStall,
        FaultPoint::WorkerPanic,
        FaultPoint::WorkerSlow,
        FaultPoint::SockDrop,
        FaultPoint::SockSlow,
    ];

    /// The spec-grammar name of this point.
    pub fn name(self) -> &'static str {
        match self {
            FaultPoint::ReaderIo => "reader-io",
            FaultPoint::ReaderTruncate => "reader-truncate",
            FaultPoint::ReaderBitflip => "reader-bitflip",
            FaultPoint::PrefetchPanic => "prefetch-panic",
            FaultPoint::PrefetchStall => "prefetch-stall",
            FaultPoint::WorkerPanic => "worker-panic",
            FaultPoint::WorkerSlow => "worker-slow",
            FaultPoint::SockDrop => "sock-drop",
            FaultPoint::SockSlow => "sock-slow",
        }
    }

    /// Whether the `=millis` arm argument applies to this point.
    pub fn takes_delay(self) -> bool {
        matches!(
            self,
            FaultPoint::PrefetchStall | FaultPoint::WorkerSlow | FaultPoint::SockSlow
        )
    }

    fn parse_name(name: &str) -> Option<FaultPoint> {
        FaultPoint::ALL.iter().copied().find(|p| p.name() == name)
    }

    fn index(self) -> usize {
        FaultPoint::ALL
            .iter()
            .position(|&p| p == self)
            .expect("every point is in ALL")
    }

    fn bit(self) -> u32 {
        1 << self.index()
    }
}

/// The default injected delay for stall/slow arms, in milliseconds.
pub const DEFAULT_DELAY_MS: u64 = 75;

/// When `@N` is omitted, the occurrence is drawn from the seed in
/// `1..=DEFAULT_OCCURRENCE_SPREAD`.
pub const DEFAULT_OCCURRENCE_SPREAD: u64 = 3;

/// The classic splitmix64 mixer — the workspace's stock seeded-
/// determinism primitive (the tenant engine's churn synthesis calls it
/// too). Public so call sites can derive jitter and offsets from a
/// [`Shot`] without adding an RNG dependency.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// What a fired arm hands its call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shot {
    /// The plan's seed, verbatim.
    pub seed: u64,
    /// The 1-based probe count at which this arm fired.
    pub occurrence: u64,
    /// The injected delay for stall/slow points (the arm's `=millis`,
    /// or [`DEFAULT_DELAY_MS`]).
    pub millis: u64,
}

impl Shot {
    /// A deterministic value derived from the plan seed, the firing
    /// occurrence, and a call-site salt — e.g. which byte to corrupt.
    pub fn draw(&self, salt: u64) -> u64 {
        splitmix64(self.seed ^ self.occurrence.rotate_left(17) ^ salt)
    }
}

#[derive(Debug, Clone)]
struct Arm {
    point: FaultPoint,
    occurrence: u64,
    millis: u64,
    fired: bool,
}

/// A parsed fault plan: one or more one-shot arms plus the seed.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    arms: Vec<Arm>,
}

impl FaultPlan {
    /// Parses a full `<arm>[,<arm>...]:<seed>` spec (the `WP_FAULT`
    /// grammar).
    ///
    /// # Errors
    ///
    /// A one-line message naming the offending arm: unknown point name,
    /// missing or non-numeric seed, zero or non-numeric occurrence, or
    /// a `=millis` argument on a point that takes none.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let (arms_part, seed_part) = spec
            .rsplit_once(':')
            .ok_or_else(|| format!("fault spec '{spec}' lacks a ':<seed>' suffix"))?;
        let seed: u64 = seed_part
            .parse()
            .map_err(|_| format!("fault seed '{seed_part}' is not a u64"))?;
        let mut arms = Vec::new();
        for raw in arms_part.split(',') {
            let raw = raw.trim();
            if raw.is_empty() {
                return Err(format!("fault spec '{spec}' has an empty arm"));
            }
            let (head, millis) = match raw.split_once('=') {
                Some((head, ms)) => {
                    let ms: u64 = ms
                        .parse()
                        .map_err(|_| format!("fault arm '{raw}': delay '{ms}' is not a u64"))?;
                    (head, Some(ms))
                }
                None => (raw, None),
            };
            let (name, occurrence) = match head.split_once('@') {
                Some((name, occ)) => {
                    let occ: u64 = occ.parse().map_err(|_| {
                        format!("fault arm '{raw}': occurrence '{occ}' is not a u64")
                    })?;
                    if occ == 0 {
                        return Err(format!("fault arm '{raw}': occurrences are 1-based"));
                    }
                    (name, Some(occ))
                }
                None => (head, None),
            };
            let point = FaultPoint::parse_name(name).ok_or_else(|| {
                let names: Vec<&str> = FaultPoint::ALL.iter().map(|p| p.name()).collect();
                format!(
                    "unknown fault point '{name}' (expected one of {})",
                    names.join(", ")
                )
            })?;
            if millis.is_some() && !point.takes_delay() {
                return Err(format!(
                    "fault arm '{raw}': '{}' takes no =millis delay",
                    point.name()
                ));
            }
            let occurrence = occurrence.unwrap_or_else(|| {
                1 + splitmix64(seed ^ (point.index() as u64 + 1)) % DEFAULT_OCCURRENCE_SPREAD
            });
            arms.push(Arm {
                point,
                occurrence,
                millis: millis.unwrap_or(DEFAULT_DELAY_MS),
                fired: false,
            });
        }
        Ok(FaultPlan { seed, arms })
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// `(point, occurrence, millis)` per arm, for display and tests.
    pub fn arms(&self) -> Vec<(FaultPoint, u64, u64)> {
        self.arms
            .iter()
            .map(|a| (a.point, a.occurrence, a.millis))
            .collect()
    }

    fn mask(&self) -> u32 {
        self.arms
            .iter()
            .filter(|a| !a.fired)
            .fold(0, |m, a| m | a.point.bit())
    }
}

struct State {
    plan: Option<FaultPlan>,
    hits: [u64; FaultPoint::ALL.len()],
    env_error: Option<String>,
}

/// Bitmask of points with at least one live (unfired) arm. The probe
/// fast path: zero — one relaxed load — whenever injection is off.
static ARMED: AtomicU32 = AtomicU32::new(0);
/// Set by [`install`]/[`clear`] so a later first probe skips the env.
static INSTALLED: AtomicBool = AtomicBool::new(false);
static ENV_INIT: Once = Once::new();
static STATE: Mutex<State> = Mutex::new(State {
    plan: None,
    hits: [0; FaultPoint::ALL.len()],
    env_error: None,
});

fn lock_state() -> MutexGuard<'static, State> {
    // A poisoned lock means a *test* panicked mid-injection; the state
    // itself is plain data and stays usable.
    STATE.lock().unwrap_or_else(|e| e.into_inner())
}

fn ensure_env_init() {
    ENV_INIT.call_once(|| {
        if INSTALLED.load(Ordering::Acquire) {
            return;
        }
        let Ok(spec) = std::env::var("WP_FAULT") else {
            return;
        };
        if spec.is_empty() {
            return;
        }
        match FaultPlan::parse(&spec) {
            Ok(plan) => install_locked(Some(plan)),
            Err(e) => lock_state().env_error = Some(e),
        }
    });
}

fn install_locked(plan: Option<FaultPlan>) {
    let mut state = lock_state();
    let mask = plan.as_ref().map_or(0, FaultPlan::mask);
    state.plan = plan;
    state.hits = [0; FaultPoint::ALL.len()];
    state.env_error = None;
    ARMED.store(mask, Ordering::Release);
}

/// Installs a plan process-wide, replacing any prior one (including one
/// read from `WP_FAULT`). Probe hit counts reset to zero.
pub fn install(plan: FaultPlan) {
    INSTALLED.store(true, Ordering::Release);
    ensure_env_init();
    install_locked(Some(plan));
}

/// Disarms everything; later probes cost one relaxed load again.
pub fn clear() {
    INSTALLED.store(true, Ordering::Release);
    ensure_env_init();
    install_locked(None);
}

/// The parse error from a malformed `WP_FAULT`, if any. A malformed
/// spec arms nothing (fail safe); binaries call this at startup to
/// fail fast with the one-line message instead.
pub fn env_error() -> Option<String> {
    ensure_env_init();
    lock_state().env_error.clone()
}

/// Whether `point` has a live arm. One relaxed load once initialised —
/// the disabled fast path.
#[inline]
pub fn armed(point: FaultPoint) -> bool {
    let mask = ARMED.load(Ordering::Relaxed);
    if mask != 0 {
        return mask & point.bit() != 0;
    }
    if ENV_INIT.is_completed() {
        return false;
    }
    ensure_env_init();
    ARMED.load(Ordering::Relaxed) & point.bit() != 0
}

/// Counts one probe of `point` and fires the arm whose occurrence this
/// probe reaches, if any. A fired arm disarms (one-shot). Returns
/// `None` — without counting — when the point has no live arm, so
/// probes on the disabled path stay a single atomic load.
#[inline]
pub fn fire(point: FaultPoint) -> Option<Shot> {
    if !armed(point) {
        return None;
    }
    fire_slow(point)
}

fn fire_slow(point: FaultPoint) -> Option<Shot> {
    let mut state = lock_state();
    state.hits[point.index()] += 1;
    let hits = state.hits[point.index()];
    let seed = state.plan.as_ref()?.seed;
    let plan = state.plan.as_mut()?;
    let arm = plan
        .arms
        .iter_mut()
        .find(|a| a.point == point && !a.fired && a.occurrence == hits)?;
    arm.fired = true;
    let shot = Shot {
        seed,
        occurrence: arm.occurrence,
        millis: arm.millis,
    };
    let mask = plan.mask();
    ARMED.store(mask, Ordering::Release);
    Some(shot)
}

static TEST_GUARD: Mutex<()> = Mutex::new(());

/// Serialises tests that mutate the process-wide plan. Hold the guard
/// across `install`/`clear` and the probes under test.
pub fn test_guard() -> MutexGuard<'static, ()> {
    TEST_GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grammar_round_trips_every_point_name() {
        for p in FaultPoint::ALL {
            assert_eq!(FaultPoint::parse_name(p.name()), Some(p), "{}", p.name());
            let plan = FaultPlan::parse(&format!("{}@2:9", p.name())).expect("parse");
            assert_eq!(plan.arms(), vec![(p, 2, DEFAULT_DELAY_MS)]);
            assert_eq!(plan.seed(), 9);
        }
    }

    #[test]
    fn grammar_rejects_malformed_specs_with_one_line_errors() {
        let cases = [
            ("worker-panic", "lacks a ':<seed>'"),
            ("worker-panic:x", "is not a u64"),
            ("worker-panic@0:1", "1-based"),
            ("worker-panic@no:1", "is not a u64"),
            ("flux-capacitor:1", "unknown fault point"),
            ("worker-panic=50:1", "takes no =millis"),
            (",:1", "empty arm"),
            (":1", "empty arm"),
        ];
        for (spec, needle) in cases {
            let err = FaultPlan::parse(spec).expect_err(spec);
            assert!(err.contains(needle), "spec '{spec}': got '{err}'");
        }
    }

    #[test]
    fn default_occurrence_is_seed_deterministic_and_in_range() {
        for seed in [0u64, 1, 42, u64::MAX] {
            let a = FaultPlan::parse(&format!("reader-bitflip:{seed}")).unwrap();
            let b = FaultPlan::parse(&format!("reader-bitflip:{seed}")).unwrap();
            assert_eq!(a.arms(), b.arms(), "seed {seed} not deterministic");
            let (_, occ, _) = a.arms()[0];
            assert!(
                (1..=DEFAULT_OCCURRENCE_SPREAD).contains(&occ),
                "seed {seed} drew occurrence {occ}"
            );
        }
        // Different points draw independently from the same seed.
        let plan = FaultPlan::parse("reader-io,worker-slow=10:7").unwrap();
        assert_eq!(plan.arms().len(), 2);
        assert_eq!(plan.arms()[1].2, 10);
    }

    #[test]
    fn arms_fire_once_on_their_occurrence_then_disarm() {
        let _guard = test_guard();
        install(FaultPlan::parse("worker-panic@3:5").unwrap());
        assert!(armed(FaultPoint::WorkerPanic));
        assert!(!armed(FaultPoint::WorkerSlow));
        assert_eq!(fire(FaultPoint::WorkerPanic), None);
        assert_eq!(fire(FaultPoint::WorkerPanic), None);
        let shot = fire(FaultPoint::WorkerPanic).expect("third probe fires");
        assert_eq!((shot.seed, shot.occurrence), (5, 3));
        // One-shot: the point disarms and later probes are free.
        assert!(!armed(FaultPoint::WorkerPanic));
        assert_eq!(fire(FaultPoint::WorkerPanic), None);
        clear();
    }

    #[test]
    fn shots_draw_deterministic_values() {
        let shot = Shot {
            seed: 11,
            occurrence: 2,
            millis: 75,
        };
        assert_eq!(shot.draw(3), shot.draw(3));
        assert_ne!(shot.draw(3), shot.draw(4));
    }

    #[test]
    fn clear_disarms_everything() {
        let _guard = test_guard();
        install(FaultPlan::parse("sock-drop@1,sock-slow@1:1").unwrap());
        assert!(armed(FaultPoint::SockDrop));
        clear();
        assert!(!armed(FaultPoint::SockDrop));
        assert!(!armed(FaultPoint::SockSlow));
        assert_eq!(fire(FaultPoint::SockDrop), None);
    }

    #[test]
    fn multiple_arms_on_one_point_share_the_probe_count() {
        let _guard = test_guard();
        install(FaultPlan::parse("sock-slow@1=5,sock-slow@3=9:2").unwrap());
        assert_eq!(fire(FaultPoint::SockSlow).map(|s| s.millis), Some(5));
        assert!(armed(FaultPoint::SockSlow), "second arm still live");
        assert_eq!(fire(FaultPoint::SockSlow), None);
        assert_eq!(fire(FaultPoint::SockSlow).map(|s| s.millis), Some(9));
        assert!(!armed(FaultPoint::SockSlow));
        clear();
    }
}
