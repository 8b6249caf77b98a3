//! `trace_tool tenant-bench` writes a report that the workspace's JSON
//! parser reads back, whatever the scenario file names itself.

use std::process::Command;

use wp_obs::json::{parse, Json};

#[test]
fn tenant_bench_report_escapes_the_scenario_name() {
    let dir = std::env::temp_dir().join(format!("wp-tenant-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let scenario = dir.join("quoted.wps");
    let out = dir.join("BENCH_tenant.json");
    let name = "q\"uo\\te";
    std::fs::write(
        &scenario,
        r#"{"name": "q\"uo\\te", "seed": 1, "cores": 4, "epochs": 1,
            "epoch_instrs": 20000, "warmup_instrs": 5000,
            "tenants": [{"name": "t", "app": "mcf", "arrival": 0, "departure": 1}]}"#,
    )
    .expect("write scenario");
    let run = Command::new(env!("CARGO_BIN_EXE_trace_tool"))
        .args(["tenant-bench", "--scenario"])
        .arg(&scenario)
        .arg("--out")
        .arg(&out)
        .output()
        .expect("run trace_tool");
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let report = std::fs::read_to_string(&out).expect("report written");
    let doc = parse(report.trim_end()).expect("report parses");
    assert_eq!(doc.get("scenario"), Some(&Json::Str(name.into())));
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert_eq!(stdout, report, "stdout carries the same report");
    let _ = std::fs::remove_dir_all(&dir);
}
