//! Replay determinism: for every Fig. 10 scheme, capturing a short
//! `delaunay` run and replaying the trace with the same budgets yields an
//! *identical* `RunSummary` — instructions, misses, bypasses, cycles, and
//! energy, bit for bit.
//!
//! This is the core guarantee of the trace subsystem: capture tees every
//! event the driver pulls (warmup included), the codec is lossless, and
//! the driver is deterministic given the event stream, so a recorded run
//! is fully reproducible without its generating model.

use whirlpool_repro::harness::{Classification, Experiment, SchemeKind};

const WARMUP: u64 = 400_000;
const MEASURE: u64 = 400_000;

fn temp(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("wp-replay-det-{}-{tag}.wpt", std::process::id()))
}

#[test]
fn every_fig10_scheme_replays_bit_identically() {
    for kind in SchemeKind::FIG10 {
        let path = temp(kind.label());
        let live = Experiment::single(kind, "delaunay")
            .warmup(WARMUP)
            .measure(MEASURE)
            .capture_to(&path)
            .run()
            .expect("capture run");
        let uri = format!("trace:{}", path.display());
        let replayed = Experiment::single(kind, &uri)
            .warmup(WARMUP)
            .measure(MEASURE)
            .run()
            .expect("replay run");

        // Spot-check the load-bearing counters explicitly...
        let (l, r) = (&live.cores[0], &replayed.cores[0]);
        assert_eq!(l.instructions, r.instructions, "{kind:?} instructions");
        assert_eq!(l.llc_misses, r.llc_misses, "{kind:?} misses");
        assert_eq!(l.llc_hits, r.llc_hits, "{kind:?} hits");
        assert_eq!(l.llc_bypasses, r.llc_bypasses, "{kind:?} bypasses");
        assert_eq!(l.cycles.to_bits(), r.cycles.to_bits(), "{kind:?} cycles");
        assert_eq!(
            live.energy.total_nj().to_bits(),
            replayed.energy.total_nj().to_bits(),
            "{kind:?} energy"
        );
        // ...then the whole summary: the JSON rendering round-trips f64s
        // exactly, so string equality is bit equality of every field.
        assert_eq!(live.to_json(), replayed.to_json(), "{kind:?} full summary");

        // Sanity: the run actually did something.
        assert!(l.instructions >= MEASURE, "{kind:?} ran");
        assert!(
            l.llc_accesses + l.llc_bypasses > 0,
            "{kind:?} accessed the LLC"
        );
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn replay_without_pools_strips_classification() {
    // A Whirlpool capture replayed with Classification::None must not
    // hand the recorded pools to the scheme: it degenerates to the
    // thread-VC-only configuration and (in general) different stats.
    let path = temp("strip");
    let live = Experiment::single(SchemeKind::Whirlpool, "delaunay")
        .warmup(WARMUP)
        .measure(MEASURE)
        .capture_to(&path)
        .run()
        .expect("capture");
    let uri = format!("trace:{}", path.display());
    let stripped = Experiment::single(SchemeKind::Whirlpool, &uri)
        .classification(Classification::None)
        .warmup(WARMUP)
        .measure(MEASURE)
        .run()
        .expect("replay");
    // Same instruction stream either way.
    assert_eq!(live.cores[0].instructions, stripped.cores[0].instructions);
    // Structurally: a bundle without pools strips the recorded ones, one
    // with pools restores them.
    assert!(wp_sim::trace_bundle(&path, 0, false)
        .unwrap()
        .pools
        .is_empty());
    assert_eq!(wp_sim::trace_bundle(&path, 0, true).unwrap().pools.len(), 3);
    // Behaviourally: without its per-pool VCs Whirlpool degenerates to
    // the thread-VC-only configuration and places/bypasses differently.
    assert_ne!(live.to_json(), stripped.to_json());
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn trace_uri_works_in_a_multiprogram_mix() {
    use whirlpool_repro::harness::Experiment;
    let path = temp("mix");
    Experiment::single(SchemeKind::SNucaLru, "delaunay")
        .warmup(100_000)
        .measure(150_000)
        .capture_to(&path)
        .run()
        .expect("capture");
    let uri = format!("trace:{}", path.display());
    let out = Experiment::mix(SchemeKind::SNucaLru, &[uri.as_str(), "mcf"])
        .measure(100_000)
        .run()
        .expect("mix with a trace core");
    assert!(out.cores[0].instructions >= 100_000, "trace core ran");
    assert!(out.cores[1].instructions >= 100_000, "model core ran");
    std::fs::remove_file(&path).unwrap();
}
