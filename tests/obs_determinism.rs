//! Observability is free of observable effects: enabling the `wp-obs`
//! registry, spans, and timeline probes must not move a single bit of
//! any result, and the JSONL the probes emit must be machine-parseable.
//!
//! 1. **Bit identity**: for every Fig. 10 scheme, a run with the
//!    registry enabled *and* the timeline probe attached emits the same
//!    `RunSummary` JSON as a run with observability fully off.
//! 2. **JSONL round trip**: every line of an [`ObsReport`]'s export
//!    parses with the workspace's JSON parser (`wp_obs::json`) and carries
//!    the documented schema fields.
//! 3. **External validation** (CI hook): with `WP_OBS_VALIDATE=<path>`,
//!    validate a JSONL file produced by `trace_tool obs --obs-out`.

use whirlpool_repro::harness::{Experiment, SchemeKind};
use wp_obs::json::{parse, Json};

const WARMUP: u64 = 100_000;
const MEASURE: u64 = 200_000;

fn run_summary(kind: SchemeKind, observe: bool) -> (String, Option<usize>) {
    let mut exp = Experiment::single(kind, "delaunay")
        .classification(kind.default_classification())
        .warmup(WARMUP)
        .measure(MEASURE);
    if observe {
        exp = exp.observe(wp_obs::ObsConfig::every(512));
    }
    let run = exp.run_full().expect("run");
    let samples = run.obs.as_ref().map(|r| r.timeline.len());
    (run.summary.to_json(), samples)
}

/// Fig. 10, twice per scheme: observability fully off, then registry on
/// with a fine-grained timeline probe attached. Summaries must agree to
/// the byte — the probes read scheme state, never steer it.
#[test]
fn results_are_bit_identical_with_observability_on_and_off() {
    for kind in SchemeKind::FIG10 {
        wp_obs::set_enabled(false);
        let (off, _) = run_summary(kind, false);
        wp_obs::set_enabled(true);
        let (on, samples) = run_summary(kind, true);
        wp_obs::set_enabled(false);
        assert_eq!(
            off,
            on,
            "{} diverged with observability enabled",
            kind.label()
        );
        // Every scheme gets a probe; only pooled schemes (Jigsaw /
        // Whirlpool families) have occupancy to report.
        let label = kind.label();
        let pooled = label.contains("Jigsaw") || label.contains("Whirlpool");
        assert!(samples.is_some(), "{label} ran without a probe attached");
        assert_eq!(
            samples.is_some_and(|n| n > 0),
            pooled,
            "{label}: unexpected timeline sample count {samples:?}"
        );
    }
}

/// Every JSONL line an [`ObsReport`] emits parses with the repo's
/// `wp_obs::json` parser (which `bench_check` re-exports) and carries
/// its discriminant's schema fields.
#[test]
fn obs_jsonl_round_trips_through_the_bench_check_parser() {
    let run = Experiment::single(SchemeKind::Whirlpool, "delaunay")
        .classification(SchemeKind::Whirlpool.default_classification())
        .warmup(WARMUP)
        .measure(MEASURE)
        .observe(wp_obs::ObsConfig::every(256))
        .run_full()
        .expect("run");
    let report = run.obs.expect("observe() attaches a report");
    assert!(!report.timeline.is_empty(), "no pool samples collected");
    let jsonl = report.to_jsonl(&run.summary.scheme);
    validate_jsonl(&jsonl);
}

/// CI hook: `WP_OBS_VALIDATE=<path>` points this test at a JSONL file
/// written by `trace_tool obs --obs-out` and it enforces the same schema
/// contract. Without the variable the test is a no-op.
#[test]
fn validates_external_obs_jsonl_when_pointed_at_one() {
    let Ok(path) = std::env::var("WP_OBS_VALIDATE") else {
        return;
    };
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("WP_OBS_VALIDATE={path}: {e}"));
    assert!(!text.is_empty(), "{path} is empty");
    validate_jsonl(&text);
}

fn validate_jsonl(text: &str) {
    let mut counts = [0usize; 3]; // pool_sample, reconfig, metrics
    for (i, line) in text.lines().enumerate() {
        let v = parse(line).unwrap_or_else(|e| panic!("line {}: {e}\n{line}", i + 1));
        let ty = match v.get("type") {
            Some(Json::Str(s)) => s.clone(),
            other => panic!("line {}: bad \"type\": {other:?}", i + 1),
        };
        let required: &[&str] = match ty.as_str() {
            "pool_sample" => {
                counts[0] += 1;
                &[
                    "cycle",
                    "event",
                    "pool",
                    "granules",
                    "bypassed",
                    "accesses",
                    "misses",
                    "miss_rate",
                ]
            }
            "reconfig" => {
                counts[1] += 1;
                &[
                    "cycle",
                    "index",
                    "pool",
                    "old_granules",
                    "new_granules",
                    "bypassed",
                    "apki",
                ]
            }
            "metrics" => {
                counts[2] += 1;
                &["scheme", "registry"]
            }
            other => panic!("line {}: unknown type '{other}'", i + 1),
        };
        for key in required {
            assert!(
                v.get(key).is_some(),
                "line {}: '{ty}' line lacks \"{key}\"",
                i + 1
            );
        }
    }
    assert!(counts[0] > 0, "no pool_sample lines");
    assert_eq!(counts[2], 1, "expected exactly one trailing metrics line");
}
