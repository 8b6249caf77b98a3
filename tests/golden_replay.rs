//! Golden digests: the `RunSummary` JSON of every scheme replaying a
//! small seeded 4-app mix capture, committed under `tests/golden/`.
//!
//! Performance work on the access paths must not change a single output
//! byte. The mode-vs-mode and live-vs-replay tests only compare the
//! current code with itself; these files pin the bytes the code produced
//! when they were recorded, so a change that shifts any counter, cycle or
//! energy figure fails here even if it is self-consistent.
//!
//! The capture itself is pinned too: `tests/golden/capture.digest` holds
//! its byte length and CRC-32, so an encoder change that still round-trips
//! through its own decoder fails here if it moves a single file byte.
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
    golden_dir().join(format!("{}.json", kind.label()))
}

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// CRC-32 (IEEE, zlib's `crc32`) one bit at a time: an oracle that
/// shares no code with the `.wpt` codec it pins.
fn crc32_bitwise(data: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in data {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
    }
    !c
}

/// The digest line of a capture: its byte length and CRC-32.
fn capture_digest(bytes: &[u8]) -> String {
    format!("bytes {} crc32 {:08x}\n", bytes.len(), crc32_bitwise(bytes))
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
    let digest = capture_digest(&std::fs::read(&capture).expect("read capture"));
    let digest_path = golden_dir().join("capture.digest");
    if bless {
        std::fs::write(&digest_path, &digest).expect("write capture digest");
    } else if std::fs::read_to_string(&digest_path).expect("read capture digest") != digest {
        mismatched.push("capture.digest");
    }
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
        "capture or replays differ from tests/golden/ for {mismatched:?}"
    );
}
