//! Exact vs SHARDS-sampled trace profiling.
//!
//! Criterion mode (`cargo bench -p wp-mrc --bench mrc_profile`) times
//! whole-trace profiling of a captured registry stream at rates
//! R ∈ {1, 0.1, 0.01}.
//!
//! Smoke mode (`cargo bench -p wp-mrc --bench mrc_profile -- --json`)
//! profiles a full-length capture once per configuration and writes the
//! machine-readable `BENCH_mrc.json` (override the path with
//! `WP_BENCH_JSON`): wall-clock per pass, sampled-vs-exact speedup, max
//! absolute miss-ratio error (strict and with 5% capacity slack), and
//! peak tracked-set size — the repo's perf-trajectory data point for MRC
//! profiling.

use std::path::PathBuf;
use std::time::Instant;

use criterion::{criterion_group, Criterion};
use wp_mrc::{
    max_miss_ratio_error, max_miss_ratio_error_with_slack, profile_streams, ProfileMode,
    ShardsConfig, StackDistanceHistogram,
};
use wp_sim::Workload;
use wp_trace::TraceWriter;
use wp_workloads::{registry, AppModel};

const S_MAX: usize = 16_384;

/// Captures `events` events of `app`'s model stream to a temp `.wpt` —
/// the same event stream a simulator capture of the app records, without
/// needing the simulator.
fn capture_model_stream(app: &str, events: u64, tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "wp-mrc-bench-{}-{app}-{tag}.wpt",
        std::process::id()
    ));
    let model = AppModel::new(registry::spec(app));
    let mut stream = model.trace_seeded(0xBEEF);
    let mut w = TraceWriter::create(&path).expect("create bench trace");
    let s = w.add_stream(app, &[]).expect("add stream");
    for _ in 0..events {
        let ev = stream.next_event().expect("model streams are infinite");
        w.record(s, ev.gap_instrs, ev.line, ev.is_write)
            .expect("record");
    }
    w.finish().expect("finish");
    path
}

fn bench(c: &mut Criterion) {
    let path = capture_model_stream("mcf", 2_000_000, "criterion");
    c.bench_function("profile_trace/exact", |b| {
        b.iter(|| profile_streams(&path, &[0], ProfileMode::Exact).unwrap())
    });
    for rate in [1.0, 0.1, 0.01] {
        c.bench_function(&format!("profile_trace/sampled-{rate}"), |b| {
            let mode = ProfileMode::Sampled(ShardsConfig::adaptive(rate, S_MAX));
            b.iter(|| profile_streams(&path, &[0], mode).unwrap())
        });
    }
    let _ = std::fs::remove_file(&path);
}

criterion_group!(benches, bench);

struct SampledRow {
    rate: f64,
    ns: u128,
    hist: StackDistanceHistogram,
    peak: usize,
}

/// One-shot smoke measurement: exact and sampled passes over a
/// full-length capture, emitted as `BENCH_mrc.json`. The subject
/// defaults to 12 M events of `SA` (a large smooth-curve stream, so the
/// strict pointwise error bound is meaningful); override with
/// `WP_BENCH_APP` / `WP_BENCH_EVENTS` to probe other registry apps.
fn smoke() {
    const GRANULE: u64 = 64;
    let app = std::env::var("WP_BENCH_APP").unwrap_or_else(|_| "SA".into());
    let events: u64 = std::env::var("WP_BENCH_EVENTS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(12_000_000);
    let path = capture_model_stream(&app, events, "smoke");

    let t0 = Instant::now();
    let exact = profile_streams(&path, &[0], ProfileMode::Exact).expect("exact profile");
    let exact_ns = t0.elapsed().as_nanos();
    let (exact_hist, instrs) = (&exact[0].histogram, exact[0].instructions);

    let mut rows = Vec::new();
    for rate in [0.1, 0.02, 0.01] {
        let cfg = ShardsConfig::adaptive(rate, S_MAX);
        let t0 = Instant::now();
        let profiles =
            profile_streams(&path, &[0], ProfileMode::Sampled(cfg)).expect("sampled profile");
        let ns = t0.elapsed().as_nanos();
        let p = profiles.into_iter().next().expect("one stream");
        rows.push(SampledRow {
            rate,
            ns,
            hist: p.histogram,
            peak: p.peak_tracked.unwrap_or(0),
        });
    }
    let _ = std::fs::remove_file(&path);

    let sampled_json: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"rate\":{},\"s_max\":{S_MAX},\"ns\":{},\"speedup\":{:.2},\
                 \"max_abs_miss_ratio_error\":{:.6},\"error_with_5pct_capacity_slack\":{:.6},\
                 \"peak_tracked\":{}}}",
                r.rate,
                r.ns,
                exact_ns as f64 / r.ns as f64,
                max_miss_ratio_error(exact_hist, &r.hist, GRANULE),
                max_miss_ratio_error_with_slack(exact_hist, &r.hist, GRANULE, 0.05),
                r.peak,
            )
        })
        .collect();
    // The perf-regression gate watches the rate-0.02 pass (the sweet spot
    // the sweep engine uses): sampled-vs-exact speedup plus the raw
    // sampled throughput, so a slowdown in either the exact or sampled
    // path trips the gate.
    let gated = rows
        .iter()
        .find(|r| (r.rate - 0.02).abs() < 1e-9)
        .unwrap_or(&rows[0]);
    let json = format!(
        "{{\"bench\":\"mrc_profile\",\"app\":\"{app}\",\"events\":{events},\
         \"instructions\":{instrs},\"distinct_lines\":{},\"granule_lines\":{GRANULE},\
         \"exact\":{{\"ns\":{exact_ns}}},\"sampled\":[{}],\
         \"gate\":{{\"sampled_speedup\":{:.2},\"sampled_events_per_sec\":{:.0}}}}}",
        exact_hist.cold_misses(),
        sampled_json.join(","),
        exact_ns as f64 / gated.ns as f64,
        events as f64 * 1e9 / gated.ns as f64,
    );
    let out = std::env::var_os("WP_BENCH_JSON")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("BENCH_mrc.json"));
    std::fs::write(&out, format!("{json}\n")).expect("write BENCH_mrc.json");
    println!("{json}");
    eprintln!("wrote {}", out.display());
}

fn main() {
    if std::env::args().any(|a| a == "--json") {
        smoke();
        return;
    }
    let mut c = Criterion::from_args();
    benches(&mut c);
    c.final_summary();
}
