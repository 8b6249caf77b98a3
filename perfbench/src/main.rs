//! `perfbench` — the in-process half of the layer-ledger benchmark.
//!
//! `perfbench/run.py` drives the user-facing surfaces (`trace_tool replay`
//! processes, a `trace_tool serve` daemon) and calls this helper for the
//! parts that need the library API:
//!
//! ```text
//! perfbench capture --seed N --out F        seeded 4-app mix capture, validated
//! perfbench serve-traces --seed N           the served session's three traces (cwd)
//! perfbench traced --capture F --schemes A,B --tool T
//!                                           untraced process vs traced in-process replay
//! perfbench session --socket S --seed N --pass P --seconds X --scenario W
//!                   [--check] [--traced]
//!                                           closed-loop served session, two connections
//! ```
//!
//! Every subcommand prints exactly one JSON object on stdout; failures of
//! an output check are reported inside it (`"failures":[...]`), while a
//! failure to run at all exits 2 with a one-line message on stderr.

mod json;
mod session;
mod traced;

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use whirlpool_repro::harness::{Classification, Experiment, SchemeKind};
use wp_serve::ops::Args;
use wp_trace::TraceInfo;

use crate::json::Obj;

/// The paper's 4-core comparison mix (ROADMAP item 1).
const MIX_APPS: [&str; 4] = ["mcf", "lbm", "delaunay", "milc"];

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("capture") => cmd_capture(&argv[1..]),
        Some("serve-traces") => cmd_serve_traces(&argv[1..]),
        Some("traced") => traced::cmd_traced(&argv[1..]),
        Some("session") => session::cmd_session(&argv[1..]),
        other => Err(format!(
            "unknown subcommand {other:?} (expected capture, serve-traces, traced, session)"
        )),
    };
    match result {
        Ok(out) => {
            println!("{out}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::from(2)
        }
    }
}

/// `--seed N`, required: every input the benchmark generates derives
/// from it.
fn seed_arg(args: &Args) -> Result<u64, String> {
    args.number("--seed")?
        .ok_or_else(|| "--seed N is required".to_string())
}

/// Records a seeded multi-program mix capture of `apps` under S-NUCA LRU
/// with the manual pool tables, then validates it with the same full scan
/// `trace_tool record` runs. `budgets` overrides the mix defaults.
///
/// The stream is LRU-driven exactly as `trace_tool record --scheme LRU`
/// records it; the manual classification only adds the pool tables, so a
/// Whirlpool replay sees the paper's static classification.
fn record_capture(
    apps: &[&str],
    seed: u64,
    budgets: Option<(u64, u64)>,
    out: &Path,
) -> Result<TraceInfo, String> {
    let mut exp = Experiment::mix(SchemeKind::SNucaLru, apps)
        .classification(Classification::Manual)
        .seed(seed)
        .capture_to(out);
    if let Some((warmup, measure)) = budgets {
        exp = exp.warmup(warmup).measure(measure);
    }
    exp.run().map_err(|e| e.to_string())?;
    TraceInfo::scan(out).map_err(|e| format!("{}: {e}", out.display()))
}

fn capture_json(info: &TraceInfo, secs: f64) -> Obj {
    let mut o = Obj::new();
    o.int("events", info.total_events());
    o.int(
        "instructions",
        info.streams.iter().map(|s| s.instructions).sum(),
    );
    o.int("bytes", info.file_bytes);
    o.int("streams", info.streams.len() as u64);
    o.num("seconds", secs);
    o
}

/// `capture --seed N --out F`: the replay workloads' input.
fn cmd_capture(rest: &[String]) -> Result<String, String> {
    let args = Args::parse(rest, &["--seed", "--out"], &[])?;
    let seed = seed_arg(&args)?;
    let out = Path::new(args.value("--out").ok_or("capture needs --out F")?);
    let t = Instant::now();
    let info = record_capture(&MIX_APPS, seed, None, out)?;
    Ok(capture_json(&info, t.elapsed().as_secs_f64()).finish())
}

/// `serve-traces --seed N`: one small single-app trace per
/// [`session::SERVE_APPS`] entry, written to the working directory.
fn cmd_serve_traces(rest: &[String]) -> Result<String, String> {
    let args = Args::parse(rest, &["--seed"], &[])?;
    let seed = seed_arg(&args)?;
    let t = Instant::now();
    let mut events = Vec::new();
    for (i, &(app, measure)) in session::SERVE_APPS.iter().enumerate() {
        let path = session::trace_path(i);
        let info = record_capture(
            &[app],
            seed,
            Some((session::SERVE_WARMUP, measure)),
            Path::new(&path),
        )?;
        events.push(info.total_events() as f64);
    }
    let mut o = Obj::new();
    o.nums("events", &events);
    o.num("seconds", t.elapsed().as_secs_f64());
    Ok(o.finish())
}
