//! Warm-sweep throughput: replaying a cached capture.
//!
//! Criterion mode (`cargo bench -p wp-bench --bench sweep_throughput`)
//! times a warm single-app replay.
//!
//! Smoke mode (`cargo bench -p wp-bench --bench sweep_throughput -- --json`)
//! runs the full warm-sweep measurement and writes the machine-readable
//! `BENCH_sweep.json` (override the path with `WP_BENCH_JSON`): one cold
//! cell (live 16-core mix capture) and seventeen warm cells over the
//! resulting trace — the all-streams mix replay plus one per-stream
//! breakdown replay per app, each of which follows its stream and
//! frame-walks the rest. The all-streams replay runs with the capture's
//! own budgets, and its `RunSummary` must equal the cold run's before any
//! timing counts, so the throughput cannot come from divergent
//! simulation. The gate is `batched_events_per_sec`, the warm cells'
//! aggregate event rate.

use std::path::PathBuf;
use std::time::Instant;

use criterion::{criterion_group, Criterion};
use whirlpool_repro::harness::{sixteen_core_config, Experiment, SchemeKind, MIX_WARMUP_INSTRS};
use wp_trace::TraceInfo;

/// Four distinct footprints (Fig. 2 spread), repeated over 16 cores.
const MIX_APPS: [&str; 16] = [
    "delaunay", "mcf", "lbm", "milc", "delaunay", "mcf", "lbm", "milc", "delaunay", "mcf", "lbm",
    "milc", "delaunay", "mcf", "lbm", "milc",
];

fn temp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("wp-sweep-bench-{}-{tag}.wpt", std::process::id()))
}

fn bench(c: &mut Criterion) {
    let path = temp("criterion");
    Experiment::single(SchemeKind::SNucaLru, "delaunay")
        .warmup(100_000)
        .measure(400_000)
        .capture_to(&path)
        .run()
        .expect("capture");
    c.bench_function("warm_replay", |b| {
        b.iter(|| {
            Experiment::replay(SchemeKind::SNucaLru, &path, 0)
                .warmup(100_000)
                .measure(400_000)
                .run()
                .expect("replay")
        })
    });
    let _ = std::fs::remove_file(&path);
}

criterion_group!(benches, bench);

struct Cell {
    name: String,
    events: u64,
    batched_ns: u128,
}

impl Cell {
    fn to_json(&self) -> String {
        format!(
            "{{\"cell\":\"{}\",\"events\":{},\"batched_ns\":{}}}",
            self.name, self.events, self.batched_ns,
        )
    }
}

/// Times one warm replay cell, returning it with the run's summary JSON.
fn run_cell(name: &str, events: u64, exp: Experiment) -> (Cell, String) {
    let t0 = Instant::now();
    let summary = exp.run().expect("replay");
    let batched_ns = t0.elapsed().as_nanos();
    let cell = Cell {
        name: name.to_string(),
        events,
        batched_ns,
    };
    (cell, summary.to_json())
}

/// One-shot smoke measurement: the warm-sweep data point for
/// `BENCH_sweep.json`. `WP_BENCH_SWEEP_MEASURE` overrides the per-core
/// measure budget (instructions) of the recorded mix.
fn smoke() {
    let measure: u64 = std::env::var("WP_BENCH_SWEEP_MEASURE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2_000_000);
    let cap = temp("smoke");

    // Cold cell: live 16-core mix run, captured to the trace cache.
    let t0 = Instant::now();
    let cold = Experiment::mix(SchemeKind::SNucaLru, &MIX_APPS)
        .measure(measure)
        .system(sixteen_core_config())
        .capture_to(&cap)
        .run()
        .expect("record mix");
    let cold_ns = t0.elapsed().as_nanos();
    let info = TraceInfo::scan(&cap).expect("scan capture");
    let total = info.total_events();

    // Warm cells: the all-streams mix replay under the capture's own
    // budgets (so it must reproduce the cold run), then one per-stream
    // breakdown replay per app.
    let (all_streams, replayed) = run_cell(
        "all_streams",
        total,
        Experiment::replay_all(SchemeKind::SNucaLru, &cap)
            .system(sixteen_core_config())
            .warmup(MIX_WARMUP_INSTRS)
            .measure(measure),
    );
    assert_eq!(
        replayed,
        cold.to_json(),
        "all-streams replay diverged from the cold capture run"
    );
    let mut cells = vec![all_streams];
    for s in &info.streams {
        let k = s.meta.id;
        let name = format!("stream{k}:{}", s.meta.name);
        let exp = Experiment::replay(SchemeKind::SNucaLru, &cap, k);
        cells.push(run_cell(&name, s.events, exp).0);
    }
    let _ = std::fs::remove_file(&cap);

    let warm_events: u64 = cells.iter().map(|c| c.events).sum();
    let batched_ns: u128 = cells.iter().map(|c| c.batched_ns).sum();
    let evps = |events: u64, ns: u128| events as f64 * 1e9 / ns as f64;
    let cold_evps = evps(total, cold_ns);
    let batched_evps = evps(warm_events, batched_ns);

    let cell_json: Vec<String> = cells.iter().map(Cell::to_json).collect();
    let json = format!(
        "{{\"bench\":\"sweep_throughput\",\"scheme\":\"LRU\",\"streams\":{},\
         \"capture_events\":{total},\"measure_instrs\":{measure},\
         \"cold\":{{\"ns\":{cold_ns},\"events_per_sec\":{cold_evps:.0}}},\
         \"cells\":[{}],\
         \"warm\":{{\"events\":{warm_events},\"batched_ns\":{batched_ns},\
         \"batched_events_per_sec\":{batched_evps:.0}}},\
         \"gate\":{{\"batched_events_per_sec\":{batched_evps:.0}}}}}",
        info.streams.len(),
        cell_json.join(","),
    );
    let out = std::env::var_os("WP_BENCH_JSON")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("BENCH_sweep.json"));
    std::fs::write(&out, format!("{json}\n")).expect("write BENCH_sweep.json");
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
