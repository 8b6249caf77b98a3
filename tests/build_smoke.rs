//! Workspace smoke test: the quickstart path — one short
//! [`Experiment::single`] run per [`SchemeKind`] — so CI exercises every scheme
//! end to end (registry app, budgets, classification, simulator, stats),
//! not just the unit tests.

use whirlpool_repro::harness::{exec_cycles, speedup_pct, Classification, Experiment, SchemeKind};
use wp_sim::RunSummary;

const ALL_SCHEMES: [SchemeKind; 8] = [
    SchemeKind::SNucaLru,
    SchemeKind::SNucaDrrip,
    SchemeKind::IdealSpd,
    SchemeKind::Awasthi,
    SchemeKind::Jigsaw,
    SchemeKind::JigsawNoBypass,
    SchemeKind::Whirlpool,
    SchemeKind::WhirlpoolNoBypass,
];

/// Short measured budget: enough for every scheme to produce non-trivial
/// LLC traffic in a debug-mode CI run, far below the paper budgets.
const INSTRS: u64 = 250_000;

fn run(kind: SchemeKind, classification: Classification) -> RunSummary {
    Experiment::single(kind, "delaunay")
        .classification(classification)
        .measure(INSTRS)
        .run()
        .expect("delaunay runs")
}

#[test]
fn quickstart_runs_every_scheme() {
    for kind in ALL_SCHEMES {
        let out = run(kind, kind.default_classification());
        // Scheme names ("S-NUCA (LRU)") are longer than figure labels
        // ("LRU"); just require the summary to be tagged with one.
        assert!(!out.scheme.is_empty(), "{kind:?}");
        assert!(
            out.cores[0].instructions >= INSTRS,
            "{kind:?}: ran {} < {INSTRS} instructions",
            out.cores[0].instructions
        );
        assert!(out.cores[0].llc_accesses > 0, "{kind:?}: no LLC traffic");
        assert!(
            exec_cycles(&out) > 0.0 && out.energy.total_nj() > 0.0,
            "{kind:?}: empty stats"
        );
    }
}

#[test]
fn quickstart_whirltool_classification_path() {
    // The automatic-classification variant of the quickstart: WhirlTool
    // profiles the train input, clusters, and the scheme consumes the
    // resulting pools.
    let out = run(
        SchemeKind::Whirlpool,
        Classification::WhirlTool {
            pools: 3,
            train: true,
        },
    );
    assert_eq!(out.scheme, "Whirlpool");
    assert!(out.cores[0].llc_accesses > 0);
}

#[test]
fn quickstart_speedup_math_is_sane() {
    // Not a performance claim (budgets are tiny and this is a debug
    // build) — just that the comparison arithmetic the README quickstart
    // performs is well-defined on real run output.
    let jig = run(SchemeKind::Jigsaw, Classification::None);
    let wp = run(SchemeKind::Whirlpool, Classification::Manual);
    let s = speedup_pct(exec_cycles(&jig), exec_cycles(&wp));
    assert!(s.is_finite());
}
