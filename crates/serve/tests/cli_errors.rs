//! The `trace_tool` CLI error surface: every misuse exits non-zero with
//! a one-line message (did-you-mean suggestions included), never a
//! panic or a usage dump. The typed-`HarnessError` API counterparts
//! live in the root crate's `tests/harness_errors.rs`.

use std::process::Command;

use whirlpool_repro::harness::{Experiment, SchemeKind};

fn temp(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("wp-cli-errors-{}-{tag}.wpt", std::process::id()))
}

fn capture_small(tag: &str) -> std::path::PathBuf {
    let path = temp(tag);
    Experiment::single(SchemeKind::SNucaLru, "delaunay")
        .warmup(50_000)
        .measure(100_000)
        .capture_to(&path)
        .run()
        .expect("capture");
    path
}

fn trace_tool(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_trace_tool"))
        .args(args)
        .output()
        .expect("run trace_tool");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn cli_unknown_app_exits_nonzero_with_suggestion() {
    let (ok, err) = trace_tool(&["record", "delauny", "--out", "/tmp/never.wpt"]);
    assert!(!ok, "must exit non-zero");
    assert!(err.contains("unknown app 'delauny'"), "{err}");
    assert!(err.contains("did you mean 'delaunay'"), "{err}");
}

#[test]
fn cli_unknown_scheme_exits_nonzero_with_suggestion() {
    let (ok, err) = trace_tool(&[
        "record",
        "delaunay",
        "--scheme",
        "whirlpol",
        "--out",
        "/tmp/never.wpt",
    ]);
    assert!(!ok, "must exit non-zero");
    assert!(err.contains("unknown scheme 'whirlpol'"), "{err}");
    assert!(err.contains("did you mean 'Whirlpool'"), "{err}");
}

#[test]
fn cli_bad_trace_exits_nonzero_one_line() {
    let (ok, err) = trace_tool(&["replay", "/nonexistent/x.wpt"]);
    assert!(!ok, "must exit non-zero");
    let lines: Vec<&str> = err.lines().filter(|l| !l.is_empty()).collect();
    assert_eq!(lines.len(), 1, "one-line message, no usage dump: {err}");
    assert!(lines[0].starts_with("trace_tool:"), "{err}");
}

#[test]
fn cli_mix_replay_of_a_capture_without_streams_exits_2_one_line() {
    let path = temp("no-streams");
    wp_trace::TraceWriter::create(&path)
        .expect("create")
        .finish()
        .expect("finish");
    let out = Command::new(env!("CARGO_BIN_EXE_trace_tool"))
        .args(["replay", path.to_str().unwrap(), "--mix"])
        .output()
        .expect("run trace_tool");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    let lines: Vec<&str> = err.lines().filter(|l| !l.is_empty()).collect();
    assert_eq!(lines.len(), 1, "one-line message, no usage dump: {err}");
    assert!(lines[0].starts_with("trace_tool:"), "{err}");
    assert!(lines[0].contains("defines no streams"), "{err}");
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn cli_colliding_trace_mix_exits_nonzero() {
    let path = capture_small("cli-collide");
    let uri = format!("trace:{}", path.display());
    let (ok, err) = trace_tool(&["record", &uri, &uri, "--out", "/tmp/never.wpt"]);
    assert!(!ok, "must exit non-zero");
    assert!(err.contains("overlap"), "{err}");
    std::fs::remove_file(&path).unwrap();
}

fn temp_wps(tag: &str, body: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("wp-cli-errors-{}-{tag}.wps", std::process::id()));
    std::fs::write(&path, body).expect("write scenario");
    path
}

#[test]
fn cli_malformed_scenario_exits_nonzero_one_line() {
    let path = temp_wps("truncated", "{\"name\":\"x\",\"cores\":4");
    let (ok, err) = trace_tool(&["scenario", path.to_str().unwrap()]);
    assert!(!ok, "must exit non-zero");
    let lines: Vec<&str> = err.lines().filter(|l| !l.is_empty()).collect();
    assert_eq!(lines.len(), 1, "one-line message, no usage dump: {err}");
    assert!(lines[0].starts_with("trace_tool: scenario error:"), "{err}");
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn cli_scenario_unknown_app_keeps_the_suggestion_contract() {
    let path = temp_wps(
        "badapp",
        r#"{"name":"x","seed":1,"cores":4,"epochs":2,"epoch_instrs":1000,
            "tenants":[{"name":"a","app":"delauny"}]}"#,
    );
    let (ok, err) = trace_tool(&["scenario", path.to_str().unwrap()]);
    assert!(!ok, "must exit non-zero");
    assert!(err.contains("unknown app 'delauny'"), "{err}");
    assert!(err.contains("did you mean 'delaunay'"), "{err}");
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn cli_missing_scenario_file_exits_nonzero_one_line() {
    let (ok, err) = trace_tool(&["scenario", "/nonexistent/x.wps"]);
    assert!(!ok, "must exit non-zero");
    let lines: Vec<&str> = err.lines().filter(|l| !l.is_empty()).collect();
    assert_eq!(lines.len(), 1, "one-line message: {err}");
    assert!(lines[0].contains("cannot read scenario"), "{err}");
}

#[test]
fn cli_scenario_unknown_scheme_exits_nonzero_with_suggestion() {
    let path = temp_wps(
        "badscheme",
        r#"{"name":"x","seed":1,"cores":4,"epochs":2,"epoch_instrs":1000,
            "tenants":[{"name":"a","app":"mcf"}]}"#,
    );
    let (ok, err) = trace_tool(&["scenario", path.to_str().unwrap(), "--schemes", "Memshar"]);
    assert!(!ok, "must exit non-zero");
    assert!(err.contains("unknown scheme 'Memshar'"), "{err}");
    assert!(err.contains("did you mean 'Memshare'"), "{err}");
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn cli_connect_without_daemon_exits_nonzero_with_hint() {
    let (ok, err) = trace_tool(&[
        "replay",
        "/tmp/never.wpt",
        "--connect",
        "/tmp/wp-no-such-daemon.sock",
    ]);
    assert!(!ok, "must exit non-zero");
    assert!(err.contains("cannot connect"), "{err}");
    assert!(err.contains("trace_tool serve"), "{err}");
}

#[test]
fn cli_local_only_subcommands_reject_connect() {
    let (ok, err) = trace_tool(&["info", "/tmp/never.wpt", "--connect", "/tmp/x.sock"]);
    assert!(!ok, "must exit non-zero");
    assert!(err.contains("runs locally"), "{err}");
}

#[test]
fn cli_sync_verbs_require_connect() {
    let (ok, err) = trace_tool(&["status"]);
    assert!(!ok, "must exit non-zero");
    assert!(err.contains("--connect"), "{err}");
}
