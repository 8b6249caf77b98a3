//! The scenario engine's determinism contract: the report line and the
//! tenant timeline are bit-identical whatever `WP_JOBS` — the same
//! projection contract `SweepResult::cells_json` keeps for sweeps — and
//! equal to the golden digest recorded in `tests/golden/`.

use whirlpool_repro::harness::SchemeKind;
use wp_tenant::{run_scenario, validate_timeline, Scenario, ScenarioOpts};

const WPS: &str = r#"{
  "name": "determinism-smoke",
  "seed": 42,
  "cores": 4,
  "epochs": 4,
  "epoch_instrs": 40000,
  "warmup_instrs": 5000,
  "tenants": [
    {"name": "alpha", "app": "mcf", "weight": 2,
     "arrival": 0, "departure": 4, "slo": {"max_miss_ratio": 0.9}},
    {"name": "beta", "app": "delaunay", "arrival": 0, "departure": 3,
     "slo": {"min_norm_ipc": 0.2}},
    {"name": "gamma", "app": "lbm", "arrival": 1, "departure": 4},
    {"name": "delta", "app": "isort", "arrival": 2, "departure": 4},
    {"name": "eps", "app": "mcf", "arrival": 2, "departure": 4}
  ]
}"#;

const KINDS: [SchemeKind; 2] = [SchemeKind::SNucaLru, SchemeKind::Memshare];

fn run(jobs: usize) -> (String, String) {
    let scenario = Scenario::from_json_str(WPS).expect("valid scenario");
    let opts = ScenarioOpts {
        jobs: Some(jobs),
        cancel: None,
    };
    let report = run_scenario(&scenario, &KINDS, &opts).expect("scenario runs");
    (report.to_json(), report.timeline_jsonl())
}

#[test]
fn report_and_timeline_are_identical_across_jobs() {
    let (base_json, base_tl) = run(1);
    for jobs in [3, 4] {
        let (j, t) = run(jobs);
        assert_eq!(base_json, j, "report differs at jobs={jobs}");
        assert_eq!(base_tl, t, "timeline differs at jobs={jobs}");
    }
    // The report is one line of valid JSON with every scheme present.
    assert!(!base_json.contains('\n'));
    let doc = wp_obs::json::parse(&base_json).expect("report parses");
    let schemes = match doc.get("schemes") {
        Some(wp_obs::json::Json::Arr(a)) => a,
        other => panic!("schemes should be an array, got {other:?}"),
    };
    assert_eq!(schemes.len(), KINDS.len());
    for s in schemes {
        assert!(s.get("weighted_speedup").and_then(|v| v.as_f64()).is_some());
        assert!(s.get("jain_fairness").and_then(|v| v.as_f64()).is_some());
        assert!(s.get("slo_violation_fraction").is_some());
    }
    // The timeline validates and covers both schemes.
    let n = validate_timeline(&base_tl).expect("timeline validates");
    assert!(n > 0);
    for kind in KINDS {
        assert!(
            base_tl.contains(&format!("\"scheme\":\"{}\"", kind.label())),
            "timeline must cover {}",
            kind.label()
        );
    }
}

/// Golden digest of the scenario's report line and timeline. Pins the
/// bytes the engine produced when the file was recorded; regenerate
/// (only for an intended behaviour change) with
/// `WP_BLESS=1 cargo test -p wp-tenant --test scenario_determinism`.
#[test]
fn report_and_timeline_match_golden() {
    let (json, timeline) = run(2);
    let out = json + "\n" + &timeline;
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/scenario.jsonl");
    if std::env::var_os("WP_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("golden dir");
        std::fs::write(&path, &out).expect("write golden file");
    } else {
        let golden = std::fs::read_to_string(&path).expect("read golden file");
        assert!(
            golden == out,
            "report or timeline differs from {}",
            path.display()
        );
    }
}

#[test]
fn fcfs_admission_shows_up_in_the_accounting() {
    let scenario = Scenario::from_json_str(WPS).unwrap();
    let report = run_scenario(
        &scenario,
        &[SchemeKind::SNucaLru],
        &ScenarioOpts {
            jobs: Some(2),
            cancel: None,
        },
    )
    .unwrap();
    let out = &report.schemes[0];
    // Epoch 2 has 5 residents on 4 cores; "eps" (latest arrival,
    // highest index) waits, then gets beta's core when beta departs at
    // epoch 3.
    let eps = out.tenants.iter().find(|t| t.name == "eps").unwrap();
    assert_eq!(eps.epochs_admitted, 1);
    assert_eq!(eps.epochs_waiting, 1);
    // "alpha" was admitted every epoch it was resident.
    let alpha = out.tenants.iter().find(|t| t.name == "alpha").unwrap();
    assert_eq!(alpha.epochs_admitted, 4);
    assert_eq!(alpha.epochs_waiting, 0);
    assert!(alpha.instructions > 0);
    assert!(alpha.alone_ipc > 0.0);
    assert!(alpha.progress > 0.0);
    // Cancellation: a pre-fired token surfaces as Cancelled.
    let token = whirlpool_repro::harness::CancelToken::new();
    token.cancel();
    let res = run_scenario(
        &scenario,
        &[SchemeKind::SNucaLru],
        &ScenarioOpts {
            jobs: Some(1),
            cancel: Some(token),
        },
    );
    assert!(matches!(
        res,
        Err(whirlpool_repro::harness::HarnessError::Cancelled)
    ));
}
