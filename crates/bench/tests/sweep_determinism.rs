//! The sweep engine's two load-bearing guarantees:
//!
//! 1. **Determinism**: a `WP_JOBS=4` parallel sweep emits `RunSummary`
//!    JSON bit-identical to the serial (`jobs = 1`) path for a
//!    3-app × 3-scheme grid — parallelism is purely a wall-clock lever.
//! 2. **Cache reuse**: the second run over a warm trace cache re-captures
//!    nothing (hit/miss counters and file mtimes agree).
//!
//! Budgets are overridden small so the test stays quick; the cache key
//! includes them, so these captures never collide with full-size runs.

use whirlpool_repro::harness::{Classification, Experiment, SchemeKind};
use wp_bench::sweep::{CellWork, SweepSpec};

const APPS: [&str; 3] = ["delaunay", "mcf", "astar"];
const SCHEMES: [SchemeKind; 3] = [
    SchemeKind::SNucaLru,
    SchemeKind::Jigsaw,
    SchemeKind::Whirlpool,
];
const WARMUP: u64 = 200_000;
const MEASURE: u64 = 300_000;

fn tmp_cache(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("wp-sweep-det-{}-{tag}", std::process::id()))
}

fn grid(cache: &std::path::Path, jobs: usize) -> SweepSpec {
    let mut spec = SweepSpec::new()
        .cache_dir(cache)
        .budgets(WARMUP, MEASURE)
        .jobs(jobs);
    for app in APPS {
        for kind in SCHEMES {
            spec.push(kind, CellWork::single(app, kind.default_classification()));
        }
    }
    spec
}

#[test]
fn parallel_sweep_is_bit_identical_to_serial_and_reuses_the_cache() {
    let cache = tmp_cache("grid");
    let _ = std::fs::remove_dir_all(&cache);

    // Cold serial run: every app captured once.
    let serial = grid(&cache, 1).run().expect("serial sweep");
    assert_eq!(serial.cache_misses, APPS.len(), "cold cache captures all");
    assert_eq!(serial.cache_hits, 0);
    assert_eq!(serial.cells.len(), APPS.len() * SCHEMES.len());

    let captures: Vec<std::path::PathBuf> = std::fs::read_dir(&cache)
        .expect("cache dir")
        .map(|e| e.expect("entry").path())
        .collect();
    assert_eq!(captures.len(), APPS.len(), "one capture per app");
    let mtimes: Vec<_> = captures
        .iter()
        .map(|p| p.metadata().expect("meta").modified().expect("mtime"))
        .collect();

    // Warm parallel run: no re-capture, bit-identical JSON.
    let parallel = grid(&cache, 4).run().expect("parallel sweep");
    assert_eq!(parallel.cache_misses, 0, "warm cache re-captures nothing");
    assert_eq!(parallel.cache_hits, APPS.len());
    assert_eq!(
        serial.cells_json(),
        parallel.cells_json(),
        "WP_JOBS=4 must emit bit-identical summaries"
    );
    // The env block is *expected* to differ: it records what actually ran.
    assert_ne!(serial.env_json(), parallel.env_json());
    for (p, before) in captures.iter().zip(&mtimes) {
        let after = p.metadata().expect("meta").modified().expect("mtime");
        assert_eq!(&after, before, "{} was rewritten", p.display());
    }

    // Every cell did real work under the scheme it claims.
    for cell in &parallel.cells {
        assert_eq!(cell.summary.scheme, make_name(cell.scheme));
        assert!(cell.summary.cores[0].instructions >= MEASURE);
    }

    std::fs::remove_dir_all(&cache).unwrap();
}

/// Golden digest of a small sweep's `cells_json`: single-app replay
/// cells under LRU and Whirlpool plus a live 2-app mix cell, run with
/// four workers. Pins the bytes the sweep produced when the file was
/// recorded; regenerate (only for an intended behaviour change) with
/// `WP_BLESS=1 cargo test -p wp-bench --test sweep_determinism`.
#[test]
fn parallel_sweep_cells_match_golden() {
    let cache = tmp_cache("golden");
    let _ = std::fs::remove_dir_all(&cache);

    let mut spec = SweepSpec::new()
        .cache_dir(&cache)
        .budgets(WARMUP, MEASURE)
        .jobs(4);
    for app in ["delaunay", "mcf"] {
        for kind in [SchemeKind::SNucaLru, SchemeKind::Whirlpool] {
            spec.push(kind, CellWork::single(app, kind.default_classification()));
        }
    }
    spec.push(
        SchemeKind::SNucaLru,
        CellWork::mix(&["delaunay", "mcf"], 200_000, false),
    );
    let json = spec.run().expect("sweep").cells_json() + "\n";
    std::fs::remove_dir_all(&cache).unwrap();

    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/sweep_cells.json");
    if std::env::var_os("WP_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("golden dir");
        std::fs::write(&path, &json).expect("write golden file");
    } else {
        let golden = std::fs::read_to_string(&path).expect("read golden file");
        assert!(golden == json, "sweep cells differ from {}", path.display());
    }
}

/// A partial temp file from a killed capture (`<key>.wpt.tmp.<pid>-<seq>`)
/// is ignored by warm lookup and the app is re-captured into a complete
/// `.wpt` — the atomic-rename discipline means truncation can never
/// poison later replays.
#[test]
fn partial_temp_capture_is_ignored_and_recaptured() {
    use wp_bench::sweep::capture_key;
    let cache = tmp_cache("partial");
    let _ = std::fs::remove_dir_all(&cache);
    std::fs::create_dir_all(&cache).expect("cache dir");

    // Simulate a capture killed mid-write: a temp file with the capture's
    // key but a stale pid/seq suffix, containing garbage.
    let key = capture_key("delaunay", WARMUP, MEASURE);
    let partial = cache.join(format!("{key}.wpt.tmp.99999-0"));
    std::fs::write(&partial, b"truncated garbage, not a wpt header").expect("partial");
    let complete = cache.join(format!("{key}.wpt"));

    let mut spec = SweepSpec::new().cache_dir(&cache).budgets(WARMUP, MEASURE);
    spec.push(
        SchemeKind::SNucaLru,
        CellWork::single("delaunay", Classification::None),
    );
    let result = spec.run().expect("sweep over a poisoned cache dir");
    assert_eq!(result.cache_misses, 1, "the app was re-captured");
    assert_eq!(result.cache_hits, 0);
    assert!(complete.exists(), "the completed capture landed");
    assert!(result.cells[0].summary.cores[0].instructions >= MEASURE);
    // The stale temp file is inert; nothing replayed it.
    assert!(partial.exists());

    std::fs::remove_dir_all(&cache).unwrap();
}

/// The replayed sweep cell must equal the live (model-driven) run it
/// stands in for — the sweep is an optimization, not an approximation.
#[test]
fn sweep_cell_matches_live_run() {
    let cache = tmp_cache("live");
    let _ = std::fs::remove_dir_all(&cache);

    let mut spec = SweepSpec::new()
        .cache_dir(&cache)
        .budgets(WARMUP, MEASURE)
        .jobs(2);
    spec.push(
        SchemeKind::Whirlpool,
        CellWork::single("delaunay", Classification::Manual),
    );
    let result = spec.run().expect("sweep");

    let live = Experiment::single(SchemeKind::Whirlpool, "delaunay")
        .classification(Classification::Manual)
        .warmup(WARMUP)
        .measure(MEASURE)
        .run()
        .expect("live run");
    assert_eq!(
        result.cells[0].summary.to_json(),
        live.to_json(),
        "replayed cell diverged from the live run"
    );

    std::fs::remove_dir_all(&cache).unwrap();
}

fn make_name(kind: SchemeKind) -> String {
    use whirlpool_repro::harness::{four_core_config, make_scheme};
    let sys = four_core_config();
    make_scheme(kind, &sys).name()
}
