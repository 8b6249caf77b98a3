//! Every scheme's batched access path against one `access` call per
//! event.
//!
//! The driver serves each quantum through `LlcScheme::access_batch`,
//! whose one loop runs a scheme's `prepare`, `serve` and `prefetch`
//! hooks: S-NUCA hashes the quantum's banks up front, the NUCA runtime
//! resolves its VCs up front, and the lookahead hints slots before
//! serving. Whatever a scheme does in its hooks must be observably the
//! plain loop of one `access` per event, which the `PerEvent` wrapper
//! below runs. The tests check that for all nine schemes, through the
//! whole harness and quantum by quantum.

use whirlpool_repro::harness::{
    four_core_config, make_scheme, Classification, Experiment, SchemeKind,
};
use wp_mem::{LineAddr, PageId, PoolId};
use wp_noc::CoreId;
use wp_sim::{
    AccessContext, BatchClock, EventBatch, LlcOutcome, LlcResponse, LlcScheme, PoolDescriptor,
    Uncore,
};

/// A scheme with every method forwarded except `access_batch` and its
/// hooks, so the loop serves each event through the inner `access`.
struct PerEvent<'a>(&'a mut dyn LlcScheme);

impl LlcScheme for PerEvent<'_> {
    fn name(&self) -> String {
        self.0.name()
    }

    fn attach_core(&mut self, core: CoreId, pools: &[PoolDescriptor]) {
        self.0.attach_core(core, pools);
    }

    fn access(&mut self, ctx: AccessContext, uncore: &mut Uncore) -> LlcResponse {
        self.0.access(ctx, uncore)
    }

    fn reconfigure(&mut self, uncore: &mut Uncore) {
        self.0.reconfigure(uncore);
    }

    fn bank_occupancy(&self) -> Vec<(usize, String, f64)> {
        self.0.bank_occupancy()
    }

    fn pool_occupancy(&self) -> Vec<wp_obs::PoolOcc> {
        self.0.pool_occupancy()
    }

    fn reconfig_log(&self) -> Vec<wp_obs::ReconfigEvent> {
        self.0.reconfig_log()
    }
}

#[test]
fn batched_runs_match_per_event_runs_through_box_dyn() {
    for kind in SchemeKind::ALL {
        let experiment = || {
            Experiment::mix(kind, &["mcf", "lbm", "delaunay", "milc"])
                .classification(Classification::Manual)
                .seed(5)
                .warmup(300_000)
                .measure(600_000)
        };
        let sys = experiment().system_config();
        let (batched, b) = experiment()
            .run_with_scheme(make_scheme(kind, &sys))
            .expect("batched run");
        let mut p = make_scheme(kind, &sys);
        let (per_event, _) = experiment()
            .run_with_scheme(PerEvent(p.as_mut()))
            .expect("per-event run");
        assert_eq!(
            batched.summary.to_json(),
            per_event.summary.to_json(),
            "{kind:?}"
        );
        let log = b.reconfig_log();
        let is_static = matches!(
            kind,
            SchemeKind::SNucaLru
                | SchemeKind::SNucaDrrip
                | SchemeKind::IdealSpd
                | SchemeKind::Awasthi
        );
        assert_eq!(log.is_empty(), is_static, "{kind:?} reconfiguration log");
        assert_eq!(log, p.reconfig_log(), "{kind:?}");
        assert_eq!(b.pool_occupancy(), p.pool_occupancy(), "{kind:?}");
    }
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// One quantum of `core`'s events: a private working set that fits, a
/// pool that streams (bypassed once the runtime learns it), a pool with
/// reuse, and pages every core shares (upgraded to the process VC).
fn fill(batch: &mut EventBatch, core: u64, x: &mut u64, len: usize) {
    batch.clear();
    for _ in 0..len {
        let r = xorshift(x);
        let line = match r % 8 {
            0..=2 => (core << 28) + r % 6_000,
            3 | 4 => (core << 28) + (1 << 24) + (r >> 8) % 400_000,
            5 => (core << 28) + (2 << 24) + (r >> 8) % 3_000,
            _ => (7 << 30) + (r >> 8) % 2_000,
        };
        batch.push((r >> 40) as u32 % 50, LineAddr(line), r & 1 == 0);
    }
}

fn pools_of(core: u64) -> Vec<PoolDescriptor> {
    let pool = |name: &str, id: u32, first_line: u64, lines: u64| PoolDescriptor {
        name: format!("{name}{core}"),
        pool: Some(PoolId(id)),
        pages: (LineAddr(first_line).page().0..=LineAddr(first_line + lines - 1).page().0)
            .map(PageId)
            .collect(),
        bytes: lines * 64,
    };
    vec![
        pool("stream", 1, (core << 28) + (1 << 24), 400_000),
        pool("reuse", 2, (core << 28) + (2 << 24), 3_000),
    ]
}

#[test]
fn batched_responses_match_per_event_responses() {
    let sys = four_core_config();
    for kind in SchemeKind::ALL {
        let mut batched = make_scheme(kind, &sys);
        let mut per_event = make_scheme(kind, &sys);
        let (mut ub, mut up) = (Uncore::new(sys.clone()), Uncore::new(sys.clone()));
        for core in 0..4u16 {
            let pools = pools_of(u64::from(core));
            batched.attach_core(CoreId(core), &pools);
            per_event.attach_core(CoreId(core), &pools);
        }
        let mut x = 0x5EED_0000 ^ kind as u64;
        let mut cycles = [0.0f64; 4];
        let mut batch = EventBatch::new();
        let (mut out_b, mut out_p) = (Vec::new(), Vec::new());
        let mut bypasses = 0;
        for q in 0..1_600usize {
            let core = q % 4;
            // Mostly full quanta, plus short and empty ones.
            let len = [256, 256, 256, 17, 0, 256, 1][q % 7];
            fill(&mut batch, core as u64, &mut x, len);
            let mut cb = BatchClock::new(cycles[core], sys.base_cpi, sys.mlp, core);
            let mut cp = cb;
            out_b.clear();
            out_p.clear();
            let id = CoreId(core as u16);
            batched.access_batch(id, &batch, &mut cb, &mut ub, &mut out_b);
            PerEvent(per_event.as_mut()).access_batch(id, &batch, &mut cp, &mut up, &mut out_p);
            let bits = |v: &[LlcResponse]| {
                v.iter()
                    .map(|r| (r.latency.to_bits(), r.outcome))
                    .collect::<Vec<_>>()
            };
            assert_eq!(bits(&out_b), bits(&out_p), "{kind:?} quantum {q}");
            bypasses += out_b
                .iter()
                .filter(|r| r.outcome == LlcOutcome::Bypass)
                .count();
            assert_eq!(cb.cycles.to_bits(), cp.cycles.to_bits());
            cycles[core] = cb.cycles;
            if q % 100 == 99 {
                for (s, u) in [(&mut batched, &mut ub), (&mut per_event, &mut up)] {
                    s.reconfigure(u);
                    u.interval_instructions.fill(0);
                }
            }
        }
        match kind {
            SchemeKind::Whirlpool => assert!(bypasses > 0, "the streaming pools never bypassed"),
            SchemeKind::JigsawNoBypass | SchemeKind::WhirlpoolNoBypass => assert_eq!(bypasses, 0),
            _ => {}
        }
        assert_eq!(format!("{ub:?}"), format!("{up:?}"), "{kind:?} uncore");
        assert_eq!(batched.reconfig_log(), per_event.reconfig_log(), "{kind:?}");
        assert_eq!(
            batched.pool_occupancy(),
            per_event.pool_occupancy(),
            "{kind:?}"
        );
        assert_eq!(
            batched.bank_occupancy(),
            per_event.bank_occupancy(),
            "{kind:?}"
        );
    }
}
