//! A replay decodes each chunk of its capture exactly once: there is no
//! validating scan before the simulation. The decode counter is
//! process-wide, so this file holds a single test.

use whirlpool_repro::harness::{Experiment, SchemeKind};
use wp_serve::ops::{self, OpCtx};
use wp_trace::TraceInfo;

fn chunks_decoded() -> u64 {
    wp_obs::snapshot()
        .counters
        .iter()
        .find(|(name, _)| *name == "trace_chunks_decoded")
        .map(|&(_, n)| n)
        .expect("counter exists")
}

#[test]
fn replays_decode_every_chunk_exactly_once() {
    let path = std::env::temp_dir().join(format!("wp-single-pass-{}.wpt", std::process::id()));
    Experiment::mix(SchemeKind::SNucaLru, &["mcf", "lbm", "delaunay", "milc"])
        .warmup(0)
        .measure(1_500_000)
        .capture_to(&path)
        .run()
        .expect("mix capture");
    let chunks = TraceInfo::scan(&path).expect("valid capture").chunks;
    assert!(chunks > 4, "several chunks per stream, got {chunks}");
    let schemes = SchemeKind::FIG10.len() as u64;

    let file = path.to_str().unwrap();
    wp_obs::set_enabled(true);
    for (what, argv, want) in [
        (
            "a --mix replay",
            vec![file, "--mix", "--scheme", "LRU"],
            chunks,
        ),
        // The run stops early; the readers drain the rest.
        (
            "a budget-cut --mix replay",
            vec![file, "--mix", "--scheme", "LRU", "--measure", "1000"],
            chunks,
        ),
        // Stream 0 is replayed; streams 1-3 are checked before it.
        ("a one-stream replay", vec![file, "--scheme", "LRU"], chunks),
        // Each scheme's run is a one-stream replay of its own, so each
        // decodes every chunk once.
        (
            "a one-stream replay of every scheme",
            vec![file, "--all-schemes", "--measure", "1000"],
            schemes * chunks,
        ),
    ] {
        wp_obs::reset();
        let argv: Vec<String> = argv.iter().map(|s| (*s).to_string()).collect();
        ops::replay(&argv, &OpCtx::offline()).expect(what);
        assert_eq!(chunks_decoded(), want, "{what}");
    }
    wp_obs::set_enabled(false);
    std::fs::remove_file(&path).unwrap();
}
