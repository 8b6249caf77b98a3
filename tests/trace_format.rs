//! Acceptance tests for the `.wpt` format against the paper-repro
//! workloads: compression on a real capture, self-contained pool tables,
//! and offline consumers (WhirlTool profiling, Mattson curves) reading
//! trace files directly.

use whirlpool_repro::harness::{Experiment, SchemeKind};
use wp_trace::TraceInfo;

fn temp(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("wp-trace-format-{}-{tag}.wpt", std::process::id()))
}

#[test]
fn delaunay_capture_beats_naive_encoding_4x() {
    // The acceptance bar: a delaunay capture must be ≥ 4x smaller than
    // the naive fixed-width record (u64 address + u32 gap = 12 B/event).
    // delaunay is a worst-ish case — three uniform-random pools, so
    // addresses carry near-maximal entropy for their footprint.
    let path = temp("ratio");
    Experiment::single(SchemeKind::SNucaLru, "delaunay")
        .warmup(500_000)
        .measure(2_000_000)
        .capture_to(&path)
        .run()
        .expect("capture");
    let info = TraceInfo::scan(&path).expect("scan");
    assert!(info.total_events() > 50_000, "capture is non-trivial");
    let ratio = info.compression_ratio();
    assert!(
        ratio >= 4.0,
        "compression ratio {ratio:.2}x < 4x ({} bytes for {} events)",
        info.file_bytes,
        info.total_events(),
    );
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn capture_is_self_contained_pools_round_trip() {
    // The trace must carry the classification the run was given: replayed
    // descriptors equal the model's manual descriptors field by field.
    let path = temp("pools");
    Experiment::single(SchemeKind::Whirlpool, "delaunay")
        .warmup(100_000)
        .measure(100_000)
        .capture_to(&path)
        .run()
        .expect("capture");
    let model = wp_workloads::AppModel::new(wp_workloads::registry::spec("delaunay"));
    let want = model.descriptors_manual();
    let bundle = wp_sim::trace_bundle(&path, 0, true).expect("bundle");
    assert_eq!(bundle.name, "delaunay");
    assert_eq!(bundle.pools.len(), want.len());
    for (g, w) in bundle.pools.iter().zip(&want) {
        assert_eq!(g.name, w.name);
        assert_eq!(g.pool, w.pool);
        assert_eq!(g.bytes, w.bytes);
        assert_eq!(g.pages, w.pages);
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn offline_consumers_read_trace_files() {
    // WhirlTool's profiler and the Mattson machinery both consume the
    // capture directly — no model, no simulator.
    let path = temp("consumers");
    Experiment::single(SchemeKind::Whirlpool, "MIS")
        .warmup(100_000)
        .measure(400_000)
        .capture_to(&path)
        .run()
        .expect("capture");

    // Mattson: MIS streams edges far past the LLC, so the whole-app curve
    // keeps missing at large capacities.
    let profile = wp_mrc::profile_streams(&path, &[0], wp_mrc::ProfileMode::Exact);
    let curve = profile.expect("profile")[0].curve(1024);
    assert!(curve.at_zero() > 50.0, "MIS is memory-intensive");
    assert!(curve.floor() > 0.0, "streaming edges never fully cache");

    // WhirlTool: pool-granular profiling separates the cacheable vertices
    // from the streaming edges.
    let (data, legend) = wp_whirltool::profile_trace_file(
        &path,
        wp_whirltool::ProfilerConfig {
            interval_instrs: 200_000,
            total_instrs: 400_000,
            granule_lines: 1024,
            curve_points: 64,
        },
    )
    .expect("profile");
    assert_eq!(legend.len(), 2, "MIS has two pools");
    assert!(!data.callpoints.is_empty());
    assert!(!data.intervals.is_empty());
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn truncated_capture_errors_cleanly_through_the_stack() {
    // Chop a real capture mid-file: the codec reports Truncated (never a
    // panic), and TraceInfo::scan propagates it.
    let path = temp("truncate");
    Experiment::single(SchemeKind::SNucaLru, "delaunay")
        .warmup(50_000)
        .measure(100_000)
        .capture_to(&path)
        .run()
        .expect("capture");
    let bytes = std::fs::read(&path).unwrap();
    let cut = temp("truncate-cut");
    std::fs::write(&cut, &bytes[..bytes.len() * 2 / 3]).unwrap();
    assert!(TraceInfo::scan(&cut).is_err());
    std::fs::remove_file(&path).unwrap();
    std::fs::remove_file(&cut).unwrap();
}
