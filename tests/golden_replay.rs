//! Golden digests: the `RunSummary` JSON of every scheme replaying a
//! small seeded 4-app mix capture, committed under `tests/golden/`.
//!
//! Performance work on the access paths must not change a single output
//! byte. The mode-vs-mode and live-vs-replay tests only compare the
//! current code with itself; these files pin the bytes the code produced
//! when they were recorded, so a change that shifts any counter, cycle or
//! energy figure fails here even if it is self-consistent.
//!
//! Regenerate (only for an intended behaviour change) with
//! `WP_BLESS=1 cargo test --test golden_replay`.

use std::path::{Path, PathBuf};

use whirlpool_repro::harness::{Classification, Experiment, SchemeKind};

const APPS: [&str; 4] = ["mcf", "lbm", "delaunay", "milc"];
const SEED: u64 = 11;
const WARMUP: u64 = 600_000;
const MEASURE: u64 = 900_000;

fn golden_path(kind: SchemeKind) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{}.json", kind.label()))
}

#[test]
fn every_scheme_replays_its_golden_summary() {
    let capture = std::env::temp_dir().join(format!("wp-golden-{}.wpt", std::process::id()));
    Experiment::mix(SchemeKind::SNucaLru, &APPS)
        .classification(Classification::Manual)
        .seed(SEED)
        .warmup(WARMUP)
        .measure(MEASURE)
        .capture_to(&capture)
        .run()
        .expect("capture run");
    let bless = std::env::var_os("WP_BLESS").is_some();
    let mut mismatched = Vec::new();
    for kind in SchemeKind::ALL {
        let json = Experiment::replay(kind, &capture)
            .all_streams()
            .warmup(WARMUP)
            .measure(MEASURE)
            .run()
            .expect("replay run")
            .to_json()
            + "\n";
        let path = golden_path(kind);
        if bless {
            std::fs::write(&path, &json).expect("write golden file");
        } else if std::fs::read_to_string(&path).expect("read golden file") != json {
            mismatched.push(kind.label());
        }
    }
    std::fs::remove_file(&capture).unwrap();
    assert!(
        mismatched.is_empty(),
        "replays differ from tests/golden/ for {mismatched:?}"
    );
}
