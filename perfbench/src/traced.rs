//! The traced replay: per-layer host time, measured from outside the
//! program.
//!
//! A [`TimedScheme`] wraps the scheme `trace_tool replay` would build and a
//! [`TimedWorkload`] wraps each replayed stream; both forward every call
//! unchanged and add the host time of the calls the driver makes once per
//! 256-event quantum (`fill_batch`, `access_batch`) or once per
//! reconfiguration interval (`reconfigure`) — never per event. The
//! replay itself is rebuilt from public pieces exactly as `trace_tool
//! replay --mix` builds it (validating scan, one `trace_bundle` per
//! stream with the recorded pools, the scheme's default system), so its
//! `RunSummary` must match the untraced process byte for byte.

use std::collections::HashMap;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use whirlpool_repro::harness::{four_core_config, make_scheme, Experiment, SchemeKind};
use wp_noc::CoreId;
use wp_serve::ops::Args;
use wp_sim::{
    trace_bundle, AccessContext, BatchClock, EventBatch, LlcResponse, LlcScheme, PoolDescriptor,
    RunSummary, TraceEvent, Uncore, Workload, WorkloadBundle,
};
use wp_trace::{BatchReader, TraceInfo, TraceWriter};

use crate::json::Obj;

/// Host-time accumulators shared by one replay's wrappers.
#[derive(Debug, Default)]
struct Ledger {
    fill_ns: AtomicU64,
    access_ns: AtomicU64,
    reconfigure_ns: AtomicU64,
    reconfigure_calls: AtomicU64,
    quanta: AtomicU64,
}

fn add_since(counter: &AtomicU64, start: Instant) {
    let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    counter.fetch_add(ns, Ordering::Relaxed);
}

fn secs(counter: &AtomicU64) -> f64 {
    Duration::from_nanos(counter.load(Ordering::Relaxed)).as_secs_f64()
}

/// Times `fill_batch`: trace decode, or the wait for the decode-ahead
/// thread.
struct TimedWorkload {
    inner: Box<dyn Workload>,
    ledger: Arc<Ledger>,
}

impl Workload for TimedWorkload {
    fn next_event(&mut self) -> Option<TraceEvent> {
        self.inner.next_event()
    }

    fn fill_batch(&mut self, batch: &mut EventBatch, max: usize) -> usize {
        let start = Instant::now();
        let n = self.inner.fill_batch(batch, max);
        add_since(&self.ledger.fill_ns, start);
        n
    }
}

/// Times the scheme's quantum accesses and its reconfigurations.
struct TimedScheme {
    inner: Box<dyn LlcScheme>,
    ledger: Arc<Ledger>,
}

impl LlcScheme for TimedScheme {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn attach_core(&mut self, core: CoreId, pools: &[PoolDescriptor]) {
        self.inner.attach_core(core, pools);
    }

    fn access(&mut self, ctx: AccessContext, uncore: &mut Uncore) -> LlcResponse {
        self.inner.access(ctx, uncore)
    }

    fn access_batch(
        &mut self,
        core: CoreId,
        batch: &EventBatch,
        clock: &mut BatchClock,
        uncore: &mut Uncore,
        out: &mut Vec<LlcResponse>,
    ) {
        let start = Instant::now();
        self.inner.access_batch(core, batch, clock, uncore, out);
        add_since(&self.ledger.access_ns, start);
        self.ledger.quanta.fetch_add(1, Ordering::Relaxed);
    }

    fn reconfigure(&mut self, uncore: &mut Uncore) {
        let start = Instant::now();
        self.inner.reconfigure(uncore);
        add_since(&self.ledger.reconfigure_ns, start);
        self.ledger
            .reconfigure_calls
            .fetch_add(1, Ordering::Relaxed);
    }

    fn bank_occupancy(&self) -> Vec<(usize, String, f64)> {
        self.inner.bank_occupancy()
    }

    fn pool_occupancy(&self) -> Vec<wp_obs::PoolOcc> {
        self.inner.pool_occupancy()
    }

    fn reconfig_log(&self) -> Vec<wp_obs::ReconfigEvent> {
        self.inner.reconfig_log()
    }
}

/// One scheme's traced replay, split by layer.
struct Traced {
    summary: RunSummary,
    json: String,
    wall_s: f64,
    scan_s: f64,
    bundle_s: f64,
    run_s: f64,
    ledger: Arc<Ledger>,
}

/// Replays every stream of `path` under `kind` the way `trace_tool replay
/// --mix` does, with the layer wrappers attached.
fn traced_replay(path: &Path, kind: SchemeKind) -> Result<Traced, String> {
    let ledger = Arc::new(Ledger::default());
    let start = Instant::now();
    let info = TraceInfo::scan(path).map_err(|e| e.to_string())?;
    let scan_s = start.elapsed().as_secs_f64();

    let bundle_start = Instant::now();
    let bundles = info
        .streams
        .iter()
        .map(|s| {
            let WorkloadBundle { trace, pools, name } =
                trace_bundle(path, s.meta.id, true).map_err(|e| e.to_string())?;
            Ok(WorkloadBundle {
                trace: Box::new(TimedWorkload {
                    inner: trace,
                    ledger: Arc::clone(&ledger),
                }),
                pools,
                name,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let bundle_s = bundle_start.elapsed().as_secs_f64();

    let run_start = Instant::now();
    let scheme = TimedScheme {
        inner: make_scheme(kind, &four_core_config()),
        ledger: Arc::clone(&ledger),
    };
    let (run, _) = Experiment::bundles(kind, bundles)
        .run_with_scheme(scheme)
        .map_err(|e| e.to_string())?;
    let run_s = run_start.elapsed().as_secs_f64();
    let json = run.summary.to_json();
    Ok(Traced {
        summary: run.summary,
        json,
        wall_s: start.elapsed().as_secs_f64(),
        scan_s,
        bundle_s,
        run_s,
        ledger,
    })
}

/// Host ns per event of a standalone whole-file `BatchReader` decode.
fn decode_ns_per_event(path: &Path) -> Result<f64, String> {
    let mut reader = BatchReader::open(path).map_err(|e| e.to_string())?;
    let mut batch = EventBatch::new();
    let mut events = 0usize;
    let start = Instant::now();
    while reader
        .next_chunk(&mut batch)
        .map_err(|e| e.to_string())?
        .is_some()
    {
        events += std::hint::black_box(&batch).len();
    }
    Ok(start.elapsed().as_nanos() as f64 / events.max(1) as f64)
}

/// Host ns per event of `TraceWriter::record` (plus the final flush)
/// re-encoding the decoded capture into a sink; decode time is excluded.
fn encode_ns_per_event(path: &Path) -> Result<f64, String> {
    let mut reader = BatchReader::open(path).map_err(|e| e.to_string())?;
    let mut writer = TraceWriter::new(std::io::sink()).map_err(|e| e.to_string())?;
    let mut ids: HashMap<u16, u16> = HashMap::new();
    let mut batch = EventBatch::new();
    let mut busy = Duration::ZERO;
    let mut events = 0usize;
    while let Some(sid) = reader.next_chunk(&mut batch).map_err(|e| e.to_string())? {
        let id = match ids.get(&sid) {
            Some(&id) => id,
            None => {
                let meta = reader
                    .stream(sid)
                    .ok_or_else(|| format!("chunk of undefined stream {sid}"))?;
                let id = writer
                    .add_stream(&meta.name, &meta.pools)
                    .map_err(|e| e.to_string())?;
                ids.insert(sid, id);
                id
            }
        };
        let start = Instant::now();
        for i in 0..batch.len() {
            writer
                .record(id, batch.gaps[i], batch.lines[i], batch.writes[i])
                .map_err(|e| e.to_string())?;
        }
        busy += start.elapsed();
        events += batch.len();
    }
    let start = Instant::now();
    writer.finish().map_err(|e| e.to_string())?;
    busy += start.elapsed();
    Ok(busy.as_nanos() as f64 / events.max(1) as f64)
}

/// Median of `reps` runs of a timing.
pub fn median_of(reps: usize, mut f: impl FnMut() -> Result<f64, String>) -> Result<f64, String> {
    let mut v = (0..reps)
        .map(|_| f())
        .collect::<Result<Vec<f64>, String>>()?;
    v.sort_by(f64::total_cmp);
    Ok(v[v.len() / 2])
}

/// Standalone decode/encode timings of the trace files `paths`, as
/// event-weighted means of per-file medians of three.
pub fn codec_timings(paths: &[&Path], o: &mut Obj) -> Result<(), String> {
    let mut weighted = (0.0, 0.0, 0.0);
    for path in paths {
        let events = TraceInfo::scan(path)
            .map_err(|e| e.to_string())?
            .total_events() as f64;
        weighted.0 += events * median_of(3, || decode_ns_per_event(path))?;
        weighted.1 += events * median_of(3, || encode_ns_per_event(path))?;
        weighted.2 += events;
    }
    o.num("decode_ns_per_event", weighted.0 / weighted.2.max(1.0));
    o.num("encode_ns_per_event", weighted.1 / weighted.2.max(1.0));
    Ok(())
}

/// `traced --capture F --schemes A,B --tool T`: for each scheme, one
/// untraced `trace_tool replay --mix` process, then the traced in-process
/// replay, then the byte comparison of their summaries.
pub fn cmd_traced(rest: &[String]) -> Result<String, String> {
    let args = Args::parse(rest, &["--capture", "--schemes", "--tool"], &[])?;
    let capture = Path::new(args.value("--capture").ok_or("traced needs --capture F")?);
    let tool = args.value("--tool").ok_or("traced needs --tool T")?;
    let schemes = args
        .value("--schemes")
        .ok_or("traced needs --schemes A,B")?;
    let mut failures = Vec::new();
    let mut out = Obj::new();
    for label in schemes.split(',') {
        let kind = SchemeKind::resolve(label).map_err(|e| e.to_string())?;
        let start = Instant::now();
        let proc_out = Command::new(tool)
            .args([
                "replay",
                &capture.to_string_lossy(),
                "--mix",
                "--scheme",
                label,
            ])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run {tool}: {e}"))?;
        let process_s = start.elapsed().as_secs_f64();
        if !proc_out.status.success() {
            failures.push(format!(
                "{label}: trace_tool replay exited {}",
                proc_out.status
            ));
        }
        let stdout = String::from_utf8_lossy(&proc_out.stdout).into_owned();
        let t = traced_replay(capture, kind)?;
        if stdout != format!("{}\n", t.json) {
            failures.push(format!(
                "{label}: traced RunSummary differs from the untraced replay's stdout"
            ));
        }
        let sum = |f: fn(&wp_sim::CoreStats) -> u64| -> u64 { t.summary.cores.iter().map(f).sum() };
        let mut s = Obj::new();
        s.str("stdout", &stdout);
        s.num("process_s", process_s);
        s.num("wall_s", t.wall_s);
        s.num("scan_s", t.scan_s);
        s.num("bundle_s", t.bundle_s);
        s.num("run_s", t.run_s);
        s.num("fill_s", secs(&t.ledger.fill_ns));
        s.num("access_s", secs(&t.ledger.access_ns));
        s.num("reconfigure_s", secs(&t.ledger.reconfigure_ns));
        s.int(
            "reconfigure_calls",
            t.ledger.reconfigure_calls.load(Ordering::Relaxed),
        );
        s.int("quanta", t.ledger.quanta.load(Ordering::Relaxed));
        s.int("events", sum(|c| c.llc_accesses + c.llc_bypasses));
        s.int("llc_hits", sum(|c| c.llc_hits));
        s.int("llc_misses", sum(|c| c.llc_misses));
        s.int("llc_bypasses", sum(|c| c.llc_bypasses));
        s.int("cycles", t.summary.cycles);
        out.obj(label, s);
    }
    codec_timings(&[capture], &mut out)?;
    out.strs("failures", &failures);
    Ok(out.finish())
}
