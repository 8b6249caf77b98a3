//! `trace_tool` — record, inspect, replay, profile, and sweep `.wpt`
//! access traces, offline or against a resident `wp-serve` daemon.
//!
//! ```text
//! trace_tool record <app>... --out <file> [--scheme S] [--classification C]
//!                          [--warmup N] [--measure N] [--sixteen-core]
//! trace_tool record --parallel <app> --out <file> [--scheme S] [--policy paws|stealing]
//! trace_tool info   <file>
//! trace_tool dump   <file> [--limit N] [--stream K]
//! trace_tool replay <file> [--scheme S | --all-schemes] [--stream K | --mix]
//!                          [--warmup N] [--measure N] [--no-pools] [--sixteen-core]
//! trace_tool profile <file> [--stream K | --all-streams]
//!                           [--exact | --sample-rate R] [--s-max N]
//!                           [--granule L] [--json]
//!                           [--verify-exact] [--max-err E] [--capacity-slack S]
//! trace_tool sweep --apps a,b[,...] [--schemes S,...] [--warmup N --measure N]
//!                  [--jobs N] [--cache-dir D] [--full-json]
//! trace_tool scenario <file.wps> [--schemes S,...] [--jobs N]
//!                     [--timeline] [--check-timeline]
//! trace_tool bench-check --baseline <BENCH_*.json>... --fresh-dir <dir>
//!                        [--max-regress R]
//! trace_tool obs <app|file> [--scheme S] [--classification C]
//!                           [--warmup N] [--measure N] [--sixteen-core]
//!                           [--sample-every N] [--obs-out <file>]
//! trace_tool serve [--socket P] [--cache-dir D] [--state-dir D]
//!                  [--workers N] [--queue N] [--timeout-ms T]
//! trace_tool serve-bench [--out F] [--clients C] [--requests N] [--cold N]
//! trace_tool tenant-bench [--out F] [--scenario <file.wps>] [--jobs N]
//! trace_tool status|metrics|shutdown --connect <sock>
//! trace_tool cancel <job> --connect <sock>
//! ```
//!
//! Every work subcommand (`record`, `replay`, `profile`, `sweep`,
//! `scenario`, `obs`)
//! also takes `--connect <sock>`: instead of running locally it ships
//! the identical argument vector to the daemon listening on `<sock>` and
//! prints the streamed reply — byte-identical stdout to the offline
//! invocation, because both ends run the same `wp_serve::ops` functions.
//! `info`, `dump`, and `bench-check` inspect local files and always run
//! locally.
//!
//! `serve` runs the daemon itself (Ctrl-C, SIGTERM, or a `shutdown`
//! request stops it gracefully);
//! `serve-bench` measures warm-daemon throughput against
//! a cold-process baseline and writes the `BENCH_serve.json` CI gate.
//! The remaining verbs are covered by `wp_serve`'s crate docs and the
//! README's "Service mode" section.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use wp_serve::ops::{self, Args, OpCtx};
use wp_serve::{Client, ExpOp, Request, ServeConfig, Server};
use wp_trace::{TraceInfo, TraceReader};

fn main() -> ExitCode {
    // A malformed WP_FAULT spec arms nothing (fail safe), but silently
    // running fault-free when the operator asked for chaos would be the
    // worst outcome — fail fast and loud instead.
    if let Some(err) = wp_fault::env_error() {
        eprintln!("trace_tool: {err}");
        return ExitCode::from(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (connect, args) = match strip_connect(argv) {
        Ok(split) => split,
        Err(msg) => {
            eprintln!("trace_tool: {msg}");
            return ExitCode::from(2);
        }
    };
    let result = match args.first().map(String::as_str) {
        Some("record") => run_op(connect, ExpOp::Record.into_request(&args[1..])),
        Some("replay") => run_op(connect, ExpOp::Replay.into_request(&args[1..])),
        Some("obs") => run_op(connect, ExpOp::Obs.into_request(&args[1..])),
        Some("profile") => run_op(
            connect,
            Request::Profile {
                argv: args[1..].to_vec(),
            },
        ),
        Some("sweep") => run_op(
            connect,
            Request::Sweep {
                argv: args[1..].to_vec(),
            },
        ),
        Some("scenario") => run_op(
            connect,
            Request::Scenario {
                argv: args[1..].to_vec(),
            },
        ),
        Some("info") => local_only(connect, "info").and_then(|()| cmd_info(&args[1..])),
        Some("dump") => local_only(connect, "dump").and_then(|()| cmd_dump(&args[1..])),
        Some("bench-check") => {
            local_only(connect, "bench-check").and_then(|()| cmd_bench_check(&args[1..]))
        }
        Some("serve") => local_only(connect, "serve").and_then(|()| cmd_serve(&args[1..])),
        Some("serve-bench") => {
            local_only(connect, "serve-bench").and_then(|()| cmd_serve_bench(&args[1..]))
        }
        Some("tenant-bench") => {
            local_only(connect, "tenant-bench").and_then(|()| cmd_tenant_bench(&args[1..]))
        }
        Some("status") => sync_verb(connect, Request::Status, &args[1..]),
        Some("metrics") => sync_verb(connect, Request::Metrics, &args[1..]),
        Some("shutdown") => sync_verb(connect, Request::Shutdown, &args[1..]),
        Some("cancel") => cmd_cancel(connect, &args[1..]),
        Some("--help" | "-h" | "help") | None => {
            eprint!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => {
            eprintln!("trace_tool: unknown subcommand '{other}'");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("trace_tool: {msg}");
            // A daemon that is draining (or died mid-conversation) is an
            // expected operational condition, not a usage error: exit 1
            // so wrappers can retry, reserving 2 for real failures.
            if wp_serve::client::is_shutdown_error(&msg) {
                ExitCode::from(1)
            } else {
                ExitCode::from(2)
            }
        }
    }
}

const USAGE: &str = "\
usage:
  trace_tool record <app>... --out <file> [--scheme S] [--classification none|manual|auto]
                    [--warmup N] [--measure N] [--sixteen-core]
                    (several apps record a multi-program mix, one stream per core)
  trace_tool record --parallel <app> --out <file> [--scheme S] [--policy paws|stealing]
                    (task-parallel app on the 16-core chip, one stream per core)
  trace_tool info   <file>
  trace_tool dump   <file> [--limit N] [--stream K]
  trace_tool replay <file> [--scheme S | --all-schemes] [--stream K | --mix]
                    [--warmup N] [--measure N] [--no-pools] [--sixteen-core]
  trace_tool profile <file> [--stream K | --all-streams] [--exact | --sample-rate R]
                    [--s-max N] [--granule L] [--json] [--verify-exact] [--max-err E] [--capacity-slack S]
                    (miss curves straight from the trace: exact Mattson or
                     SHARDS-sampled, all requested streams in one scan)
  trace_tool sweep  --apps a,b[,...] [--schemes S,...] [--warmup N --measure N]
                    [--jobs N] [--cache-dir D] [--full-json]
                    (a (scheme x app) grid on the sweep engine; prints the
                     deterministic cells JSON on one line)
  trace_tool scenario <file.wps> [--schemes S,...] [--jobs N]
                    [--timeline] [--check-timeline]
                    (run a multi-tenant churn scenario under each scheme and
                     print the one-line report JSON; --timeline appends the
                     per-scheme tenant event JSONL, --check-timeline validates
                     it in-process first)
  trace_tool bench-check --baseline <BENCH_*.json>... --fresh-dir <dir>
                    [--max-regress R]
                    (compare each committed baseline's \"gate\" metrics against
                     the same-named fresh report in <dir>; exits non-zero if any
                     metric fell more than R, default 0.25, below baseline)
  trace_tool obs <app|file> [--scheme S] [--classification none|manual|auto]
                    [--warmup N] [--measure N] [--sixteen-core]
                    [--sample-every N] [--obs-out <file>]
                    (run with observability probes attached and emit the JSONL
                     timeline: pool occupancy, reconfigurations, registry
                     snapshot; stdout unless --obs-out)
  trace_tool serve  [--socket P] [--cache-dir D] [--state-dir D] [--workers N] [--queue N]
                    [--timeout-ms T]
                    (run the resident daemon; SIGINT, SIGTERM, or a shutdown
                     request stops it gracefully; --timeout-ms cancels any job
                     whose wall clock blows the budget with a typed error)
  trace_tool serve-bench [--out F] [--clients C] [--requests N] [--cold N]
                    (measure warm-daemon vs cold-process throughput and write
                     the BENCH_serve.json gate report)
  trace_tool tenant-bench [--out F] [--scenario <file.wps>] [--jobs N]
                    (run the bundled smoke scenario under the default scheme
                     set, measure scenario events/s, and write the
                     BENCH_tenant.json gate report)
  trace_tool status|metrics|shutdown --connect <sock>
  trace_tool cancel <job> --connect <sock>

Work subcommands (record, replay, profile, sweep, scenario, obs)
accept --connect <sock> to run on a `trace_tool serve` daemon instead
of locally; stdout is byte-identical either way. A daemon that is
shutting down mid-conversation maps to exit code 1 (retryable), every
other error to 2. WP_FAULT=<point>[@N][=ms][,...]:<seed> arms the
deterministic fault-injection layer (see the wp-fault crate docs).

schemes: LRU, DRRIP, IdealSPD, Awasthi, Jigsaw, Jigsaw-NoBypass,
         Whirlpool, Whirlpool-NoBypass, Memshare
";

/// Pulls `--connect <sock>` (anywhere in the argv) out of the argument
/// list, so neither the offline ops nor the wire argv ever see it.
fn strip_connect(argv: Vec<String>) -> Result<(Option<PathBuf>, Vec<String>), String> {
    let mut out = Vec::with_capacity(argv.len());
    let mut connect = None;
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        if arg == "--connect" {
            let sock = it.next().ok_or("--connect needs a socket path")?;
            if connect.replace(PathBuf::from(sock)).is_some() {
                return Err("--connect given twice".into());
            }
        } else {
            out.push(arg);
        }
    }
    Ok((connect, out))
}

trait IntoRequest {
    fn into_request(self, rest: &[String]) -> Request;
}

impl IntoRequest for ExpOp {
    fn into_request(self, rest: &[String]) -> Request {
        Request::Experiment {
            op: self,
            argv: rest.to_vec(),
        }
    }
}

/// Runs a work verb: locally through the ops layer, or — with
/// `--connect` — on the daemon. Both paths print the same lines.
fn run_op(connect: Option<PathBuf>, req: Request) -> Result<(), String> {
    let lines = match connect {
        None => ops::run_request(&req, &OpCtx::offline())?,
        Some(sock) => connect_retrying(&sock)?.run(&req)?.lines,
    };
    // The one println! both modes share — the byte-identity choke point.
    for line in lines {
        println!("{line}");
    }
    Ok(())
}

fn local_only(connect: Option<PathBuf>, sub: &str) -> Result<(), String> {
    match connect {
        Some(_) => Err(format!("{sub} runs locally; drop --connect")),
        None => Ok(()),
    }
}

fn require_connect(connect: Option<PathBuf>, sub: &str) -> Result<PathBuf, String> {
    connect.ok_or_else(|| format!("{sub} needs --connect <sock> (a running daemon)"))
}

/// Every client-mode path connects through here: a few retries with
/// capped jittered backoff smooth over a daemon that is still binding
/// its socket. The jitter seed is the pid, so a fleet of clients
/// hitting one dead socket spreads out instead of stampeding.
fn connect_retrying(sock: &Path) -> Result<Client, String> {
    Client::connect_with_retry(sock, 3, u64::from(std::process::id()))
}

/// `status`/`metrics`/`shutdown`: one request, one reply frame printed.
fn sync_verb(connect: Option<PathBuf>, req: Request, rest: &[String]) -> Result<(), String> {
    if !rest.is_empty() {
        return Err(format!("{} takes no arguments", req.verb()));
    }
    let sock = require_connect(connect, &req.verb())?;
    let frame = connect_retrying(&sock)?.call(&req)?;
    println!("{frame}");
    Ok(())
}

fn cmd_cancel(connect: Option<PathBuf>, rest: &[String]) -> Result<(), String> {
    let args = Args::parse(rest, &[], &[])?;
    let [job] = args.positional[..] else {
        return Err("cancel takes exactly one job id".into());
    };
    let job: u64 = job
        .parse()
        .map_err(|_| format!("job id must be an integer, got '{job}'"))?;
    let sock = require_connect(connect, "cancel")?;
    let frame = connect_retrying(&sock)?.call(&Request::Cancel { job })?;
    println!("{frame}");
    Ok(())
}

/// `serve`: bind and run the daemon in the foreground.
fn cmd_serve(rest: &[String]) -> Result<(), String> {
    let args = Args::parse(
        rest,
        &[
            "--socket",
            "--cache-dir",
            "--state-dir",
            "--workers",
            "--queue",
            "--timeout-ms",
        ],
        &[],
    )?;
    if !args.positional.is_empty() {
        return Err(format!(
            "serve takes no positional arguments (got '{}')",
            args.positional[0]
        ));
    }
    let mut config = ServeConfig::new(
        args.value("--socket")
            .map_or_else(|| PathBuf::from("target/wp-serve/wp.sock"), PathBuf::from),
    );
    if let Some(dir) = args.value("--cache-dir") {
        config.cache_dir = PathBuf::from(dir);
    }
    if let Some(dir) = args.value("--state-dir") {
        config.state_dir = PathBuf::from(dir);
    }
    if let Some(n) = args.number("--workers")? {
        config.workers = n.max(1) as usize;
    }
    if let Some(n) = args.number("--queue")? {
        config.queue_capacity = n.max(1) as usize;
    }
    if let Some(ms) = args.number("--timeout-ms")? {
        config.job_timeout_ms = Some(ms.max(1));
    }
    Server::bind(&config)?.run()
}

/// `serve-bench`: the scaling proof behind `BENCH_serve.json`.
///
/// Records one small trace, then measures the same `profile --json`
/// request two ways: *cold* — a fresh `trace_tool` process per request
/// (what every invocation cost before the daemon existed) — and *warm* —
/// C client connections saturating an in-process daemon whose curve memo
/// holds the answer after the first computation. The report's `gate`
/// object carries the warm/cold throughput ratio (`serve_speedup`) and
/// the absolute warm requests/s; `bench-check` enforces both in CI.
fn cmd_serve_bench(rest: &[String]) -> Result<(), String> {
    let args = Args::parse(rest, &["--out", "--clients", "--requests", "--cold"], &[])?;
    if !args.positional.is_empty() {
        return Err(format!(
            "serve-bench takes no positional arguments (got '{}')",
            args.positional[0]
        ));
    }
    let out = args
        .value("--out")
        .unwrap_or("BENCH_serve.json")
        .to_string();
    let clients = args.number("--clients")?.unwrap_or(4).max(1) as usize;
    let requests = args.number("--requests")?.unwrap_or(50).max(1) as usize;
    let cold_runs = args.number("--cold")?.unwrap_or(5).max(1) as usize;

    let base = std::env::temp_dir().join(format!("wp-serve-bench-{}", std::process::id()));
    std::fs::create_dir_all(&base).map_err(|e| format!("cannot create {}: {e}", base.display()))?;
    let trace = base.join("bench.wpt");
    let record_argv: Vec<String> = [
        "mcf",
        "--out",
        trace.to_str().expect("temp paths are utf-8"),
        "--warmup",
        "20000",
        "--measure",
        "120000",
    ]
    .map(str::to_string)
    .to_vec();
    eprintln!("serve-bench: recording the probe trace...");
    ops::record(&record_argv, &OpCtx::offline())?;
    let profile_argv: Vec<String> = [
        trace.to_str().expect("temp paths are utf-8"),
        "--sample-rate",
        "0.1",
        "--s-max",
        "512",
        "--json",
    ]
    .map(str::to_string)
    .to_vec();

    // Cold baseline: a fresh process per request, the pre-daemon cost.
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    eprintln!("serve-bench: {cold_runs} cold process-per-request runs...");
    let cold_start = std::time::Instant::now();
    for _ in 0..cold_runs {
        let status = std::process::Command::new(&exe)
            .arg("profile")
            .args(&profile_argv)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status()
            .map_err(|e| format!("cannot spawn cold baseline process: {e}"))?;
        if !status.success() {
            return Err(format!("cold baseline run failed with {status}"));
        }
    }
    let cold_secs = cold_start.elapsed().as_secs_f64().max(1e-9);
    let cold_rps = cold_runs as f64 / cold_secs;

    // Warm: an in-process daemon saturated by C connections x N requests.
    let socket = base.join("bench.sock");
    let mut config = ServeConfig::new(&socket);
    config.cache_dir = base.join("cache");
    config.state_dir = base.join("state");
    config.workers = clients.min(4);
    let server = Server::bind(&config)?;
    let shutdown = server.shutdown_flag();
    let daemon = std::thread::spawn(move || server.run());
    // First request pays the one real profile computation so the
    // measured section is the steady (memoized) state the daemon exists
    // to provide.
    let warm_req = Request::Profile {
        argv: profile_argv.clone(),
    };
    Client::connect(&socket)?.run(&warm_req)?;
    eprintln!("serve-bench: {clients} clients x {requests} warm requests...");
    let warm_start = std::time::Instant::now();
    let mut latencies_us: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let req = warm_req.clone();
                let socket = &socket;
                scope.spawn(move || -> Result<Vec<u64>, String> {
                    let mut client = Client::connect(socket)?;
                    let mut lat = Vec::with_capacity(requests);
                    for _ in 0..requests {
                        let t = std::time::Instant::now();
                        client.run(&req)?;
                        lat.push(t.elapsed().as_micros() as u64);
                    }
                    Ok(lat)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("bench client thread panicked"))
            .collect::<Result<Vec<_>, String>>()
    })?
    .into_iter()
    .flatten()
    .collect();
    let warm_secs = warm_start.elapsed().as_secs_f64().max(1e-9);
    let total_requests = clients * requests;
    let warm_rps = total_requests as f64 / warm_secs;
    latencies_us.sort_unstable();
    let pct = |p: f64| latencies_us[((latencies_us.len() - 1) as f64 * p) as usize];
    shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
    daemon.join().expect("daemon thread panicked")?;
    let _ = std::fs::remove_dir_all(&base);

    let speedup = warm_rps / cold_rps.max(1e-9);
    let report = format!(
        "{{\"bench\":\"serve\",\"clients\":{clients},\"requests_per_client\":{requests},\
         \"cold_runs\":{cold_runs},\
         \"cold\":{{\"requests_per_sec\":{cold_rps:.2}}},\
         \"warm\":{{\"requests\":{total_requests},\"requests_per_sec\":{warm_rps:.2},\
         \"p50_us\":{},\"p99_us\":{}}},\
         \"gate\":{{\"serve_speedup\":{speedup:.2},\"warm_requests_per_sec\":{warm_rps:.2}}}}}",
        pct(0.50),
        pct(0.99),
    );
    std::fs::write(&out, format!("{report}\n")).map_err(|e| format!("cannot write {out}: {e}"))?;
    eprintln!(
        "serve-bench: cold {cold_rps:.1} req/s, warm {warm_rps:.1} req/s \
         ({speedup:.1}x, p99 {} us) -> {out}",
        pct(0.99),
    );
    println!("{report}");
    Ok(())
}

/// `tenant-bench`: the scenario-engine perf gate behind `BENCH_tenant.json`.
///
/// Runs the bundled smoke scenario offline under the same default scheme
/// set the `scenario` verb uses, measures wall-clock scenario events/s
/// (arrivals, departures, admissions, waits, violations processed per
/// second), and records each scheme's weighted speedup. The report's
/// `gate` object carries the throughput plus the per-scheme speedups —
/// the latter are bit-deterministic, so any drop means the engine or a
/// scheme changed behaviour, not just got slower.
fn cmd_tenant_bench(rest: &[String]) -> Result<(), String> {
    use whirlpool_repro::harness::SchemeKind;

    let args = Args::parse(rest, &["--out", "--scenario", "--jobs"], &[])?;
    if !args.positional.is_empty() {
        return Err(format!(
            "tenant-bench takes no positional arguments (got '{}')",
            args.positional[0]
        ));
    }
    let out = args
        .value("--out")
        .unwrap_or("BENCH_tenant.json")
        .to_string();
    let path = args.value("--scenario").unwrap_or("scenarios/smoke.wps");
    let scenario = wp_tenant::Scenario::load(Path::new(path)).map_err(|e| e.to_string())?;
    let kinds = [
        SchemeKind::Whirlpool,
        SchemeKind::Memshare,
        SchemeKind::Jigsaw,
        SchemeKind::SNucaLru,
    ];
    let mut opts = wp_tenant::ScenarioOpts::default();
    if let Some(jobs) = args.number("--jobs")? {
        opts.jobs = Some(jobs.max(1) as usize);
    }
    eprintln!(
        "tenant-bench: running '{}' ({} tenants, {} epochs) under {} schemes...",
        scenario.name,
        scenario.tenants.len(),
        scenario.epochs,
        kinds.len(),
    );
    let start = std::time::Instant::now();
    let report = wp_tenant::run_scenario(&scenario, &kinds, &opts).map_err(|e| e.to_string())?;
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    let events: usize = report.schemes.iter().map(|s| s.events.len()).sum();
    let events_per_sec = events as f64 / secs;

    let mut gate = format!("\"scenario_events_per_sec\":{events_per_sec:.2}");
    let mut speedups = String::new();
    for s in &report.schemes {
        gate.push_str(&format!(
            ",\"weighted_speedup_{}\":{:.4}",
            s.scheme.label(),
            s.weighted_speedup
        ));
        if !speedups.is_empty() {
            speedups.push(',');
        }
        speedups.push_str(&format!(
            "{{\"scheme\":\"{}\",\"weighted_speedup\":{:.4},\"jain_fairness\":{:.4}}}",
            s.scheme.label(),
            s.weighted_speedup,
            s.jain_fairness
        ));
    }
    let report_json = format!(
        "{{\"bench\":\"tenant\",\"scenario\":\"{}\",\"tenants\":{},\"epochs\":{},\
         \"schemes\":[{speedups}],\
         \"events\":{events},\"secs\":{secs:.3},\
         \"gate\":{{{gate}}}}}",
        scenario.name,
        scenario.tenants.len(),
        scenario.epochs,
    );
    std::fs::write(&out, format!("{report_json}\n"))
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    eprintln!(
        "tenant-bench: {events} events in {secs:.2}s ({events_per_sec:.1} events/s) -> {out}"
    );
    println!("{report_json}");
    Ok(())
}

fn cmd_info(rest: &[String]) -> Result<(), String> {
    let args = Args::parse(rest, &[], &[])?;
    let [file] = args.positional[..] else {
        return Err("info takes exactly one trace file".into());
    };
    let info = TraceInfo::scan(Path::new(file)).map_err(|e| e.to_string())?;
    println!("{file}");
    println!(
        "  {} bytes, {} chunks, {} streams, {} events total",
        info.file_bytes,
        info.chunks,
        info.streams.len(),
        info.total_events(),
    );
    println!(
        "  naive fixed-width size {} bytes -> compression {:.2}x ({:.2} bytes/event)",
        info.naive_bytes(),
        info.compression_ratio(),
        if info.total_events() == 0 {
            0.0
        } else {
            info.file_bytes as f64 / info.total_events() as f64
        },
    );
    for s in &info.streams {
        println!(
            "  stream {} '{}': {} events, {} instructions, {} writes",
            s.meta.id, s.meta.name, s.events, s.instructions, s.writes
        );
        if let Some((lo, hi)) = s.line_span {
            println!("    lines {lo:#x}..{hi:#x}");
        }
        for (i, p) in s.meta.pools.iter().enumerate() {
            println!(
                "    pool {i} '{}': {} KB, {} pages{}",
                p.name,
                p.bytes / 1024,
                p.pages.len(),
                p.pool
                    .map(|id| format!(", allocator pool {id}"))
                    .unwrap_or_default(),
            );
        }
    }
    Ok(())
}

fn cmd_dump(rest: &[String]) -> Result<(), String> {
    let args = Args::parse(rest, &["--limit", "--stream"], &[])?;
    let [file] = args.positional[..] else {
        return Err("dump takes exactly one trace file".into());
    };
    let limit = args.number("--limit")?.unwrap_or(64);
    let only = args.number("--stream")?;
    let mut reader = TraceReader::open(Path::new(file)).map_err(|e| e.to_string())?;
    println!(
        "{:>10} {:>6} {:>8} {:>14} {:>3} {:>5}",
        "seq", "stream", "gap", "line", "rw", "pool"
    );
    let mut seq = 0u64;
    let mut shown = 0u64;
    loop {
        match reader.next_record() {
            Ok(Some((sid, rec))) => {
                seq += 1;
                if only.is_some_and(|k| u64::from(sid) != k) {
                    continue;
                }
                if shown >= limit {
                    println!("... (truncated at --limit {limit})");
                    return Ok(());
                }
                println!(
                    "{:>10} {:>6} {:>8} {:>#14x} {:>3} {:>5}",
                    seq - 1,
                    sid,
                    rec.gap_instrs,
                    rec.line.0,
                    if rec.is_write { "w" } else { "r" },
                    rec.pool
                        .map(|p| p.to_string())
                        .unwrap_or_else(|| "-".into()),
                );
                shown += 1;
            }
            Ok(None) => return Ok(()),
            Err(e) => return Err(e.to_string()),
        }
    }
}

/// `bench-check`: the CI perf gate. Each committed `BENCH_*.json`
/// baseline is paired by file name with a freshly measured report in
/// `--fresh-dir`; every numeric metric in the baseline's `"gate"` object
/// (all bigger-is-better throughputs/speedups) must stay above
/// `baseline * (1 - max_regress)`.
fn cmd_bench_check(rest: &[String]) -> Result<(), String> {
    let args = Args::parse(rest, &["--baseline", "--fresh-dir", "--max-regress"], &[])?;
    if !args.positional.is_empty() {
        return Err(format!(
            "bench-check takes no positional arguments (got '{}')",
            args.positional[0]
        ));
    }
    let baselines = args.values("--baseline");
    if baselines.is_empty() {
        return Err("bench-check needs at least one --baseline <BENCH_*.json>".into());
    }
    let fresh_dir = PathBuf::from(
        args.value("--fresh-dir")
            .ok_or("bench-check needs --fresh-dir <dir>")?,
    );
    let max_regress = match args.value("--max-regress") {
        None => 0.25,
        Some(v) => {
            let r: f64 = v
                .parse()
                .map_err(|_| format!("--max-regress expects a number, got '{v}'"))?;
            if !(0.0..1.0).contains(&r) {
                return Err(format!("--max-regress must be in [0, 1), got {r}"));
            }
            r
        }
    };
    let mut regressions = 0usize;
    for baseline in baselines {
        let baseline = Path::new(baseline);
        let name = baseline
            .file_name()
            .ok_or_else(|| format!("--baseline '{}' has no file name", baseline.display()))?;
        let fresh = fresh_dir.join(name);
        let comparisons = whirlpool_repro::bench_check::check_files(baseline, &fresh, max_regress)?;
        println!("{}:", name.to_string_lossy());
        for c in &comparisons {
            println!("  {c}");
            regressions += usize::from(c.regressed);
        }
    }
    if regressions > 0 {
        return Err(format!(
            "{regressions} gate metric(s) regressed more than {:.0}% vs committed baselines",
            max_regress * 100.0
        ));
    }
    eprintln!(
        "bench-check: all gate metrics within {:.0}%",
        max_regress * 100.0
    );
    Ok(())
}
