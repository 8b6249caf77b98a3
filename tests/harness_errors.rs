//! The harness error surface, end to end: every misuse — unknown app,
//! unknown scheme, over-subscribed floorplan, missing/corrupt trace,
//! colliding trace mix — yields the matching typed [`HarnessError`]
//! variant through `Experiment` (no panics). The matching
//! `trace_tool` CLI exit-code tests live with the binary, in
//! `crates/serve/tests/cli_errors.rs`.

use whirlpool_repro::harness::{Classification, Experiment, HarnessError, SchemeKind};

fn temp(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("wp-errors-{}-{tag}.wpt", std::process::id()))
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

// ---------------------------------------------------------------------------
// API surface
// ---------------------------------------------------------------------------

#[test]
fn unknown_app_yields_typed_error_with_suggestion() {
    for result in [
        Experiment::single(SchemeKind::SNucaLru, "delauny").run(),
        Experiment::single(SchemeKind::SNucaLru, "delauny").run(),
        Experiment::mix(SchemeKind::SNucaLru, &["mcf", "delauny"]).run(),
    ] {
        match result {
            Err(HarnessError::UnknownApp { name, suggestion }) => {
                assert_eq!(name, "delauny");
                assert_eq!(suggestion.as_deref(), Some("delaunay"));
            }
            other => panic!("expected UnknownApp, got {other:?}"),
        }
    }
}

#[test]
fn unknown_scheme_yields_typed_error_with_suggestion() {
    match SchemeKind::resolve("jigsw") {
        Err(HarnessError::UnknownScheme { name, suggestion }) => {
            assert_eq!(name, "jigsw");
            assert_eq!(suggestion.as_deref(), Some("Jigsaw"));
        }
        other => panic!("expected UnknownScheme, got {other:?}"),
    }
}

#[test]
fn oversubscribed_floorplan_yields_typed_error() {
    // 5 apps on the 4-core chip...
    match Experiment::mix(SchemeKind::SNucaLru, &["delaunay"; 5]).run() {
        Err(HarnessError::TooManyWorkloads { workloads, cores }) => {
            assert_eq!((workloads, cores), (5, 4));
        }
        other => panic!("expected TooManyWorkloads, got {other:?}"),
    }
    // ...and the error names the 16-core escape hatch.
    let msg = HarnessError::TooManyWorkloads {
        workloads: 5,
        cores: 4,
    }
    .to_string();
    assert!(msg.contains("16-core"), "{msg}");
}

#[test]
fn missing_trace_yields_trace_error() {
    for result in [
        Experiment::single(SchemeKind::SNucaLru, "trace:/nonexistent/x.wpt").run(),
        Experiment::replay(SchemeKind::SNucaLru, "/nonexistent/x.wpt", 0).run(),
        Experiment::replay_all(SchemeKind::SNucaLru, "/nonexistent/x.wpt").run(),
    ] {
        assert!(matches!(result, Err(HarnessError::Trace(_))), "{result:?}");
    }
}

#[test]
fn corrupt_trace_yields_trace_error() {
    // Valid magic + version, then garbage: the reader must reject it with
    // a typed error, and the harness must pass that through.
    let path = temp("corrupt");
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"WPT1");
    bytes.extend_from_slice(&1u16.to_le_bytes());
    bytes.extend_from_slice(&0u16.to_le_bytes());
    bytes.extend_from_slice(&[0xFF; 64]);
    std::fs::write(&path, bytes).unwrap();
    let result =
        Experiment::single(SchemeKind::SNucaLru, &format!("trace:{}", path.display())).run();
    assert!(matches!(result, Err(HarnessError::Trace(_))), "{result:?}");
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn colliding_trace_mix_yields_typed_error_naming_cores() {
    let path = capture_small("collide");
    let uri = format!("trace:{}", path.display());
    match Experiment::mix(SchemeKind::SNucaLru, &[&uri, &uri]).run() {
        Err(HarnessError::AddressSpaceCollision {
            core_a,
            app_a,
            core_b,
            app_b,
        }) => {
            assert_eq!((core_a, core_b), (0, 1));
            assert_eq!(app_a, uri);
            assert_eq!(app_b, uri);
        }
        other => panic!("expected AddressSpaceCollision, got {other:?}"),
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn colliding_traces_are_caught_even_when_pool_tables_dont_overlap() {
    // Two hand-written captures whose pool tables are disjoint but whose
    // *event streams* overlap: the collision check must use the exact
    // recorded line span, not the (under-covering) pool tables.
    use wp_trace::{PoolMeta, TraceWriter};
    let mk = |tag: &str, pool_page: u64| {
        let path = temp(tag);
        let mut w = TraceWriter::create(&path).expect("create");
        let pools = [PoolMeta {
            name: "p".into(),
            pool: Some(1),
            bytes: 4096,
            pages: vec![wp_mem::PageId(pool_page)],
        }];
        let s = w.add_stream(tag, &pools).expect("stream");
        // Events sweep pages 0..=200 — far beyond the one-page pool.
        for i in 0..200u64 {
            w.record(s, 50, wp_mem::LineAddr(i * wp_mem::LINES_PER_PAGE), false)
                .expect("record");
        }
        w.finish().expect("finish");
        path
    };
    let a = mk("alias-a", 500);
    let b = mk("alias-b", 900);
    let (ua, ub) = (
        format!("trace:{}", a.display()),
        format!("trace:{}", b.display()),
    );
    // Default classification restores the (disjoint) pools; the streams
    // still alias, so the mix must be rejected.
    match Experiment::mix(SchemeKind::Whirlpool, &[&ua, &ub]).run() {
        Err(HarnessError::AddressSpaceCollision { core_a, core_b, .. }) => {
            assert_eq!((core_a, core_b), (0, 1));
        }
        other => panic!("expected AddressSpaceCollision, got {other:?}"),
    }
    std::fs::remove_file(&a).unwrap();
    std::fs::remove_file(&b).unwrap();
}

#[test]
fn replay_of_an_undefined_stream_is_typed() {
    // A stream id the capture does not define is a typed trace error
    // naming the stream. (A capture with more streams than the chip has
    // cores is `parallel_capture.rs`'s
    // `oversubscribed_replay_of_a_parallel_capture_is_typed`.)
    let path = capture_small("stream-range");
    let result = Experiment::replay(SchemeKind::SNucaLru, &path, 9)
        .classification(Classification::None)
        .run();
    match result {
        Err(HarnessError::Trace(e)) => {
            assert!(e.to_string().contains("stream 9"), "{e}");
        }
        other => panic!("expected a Trace error, got {other:?}"),
    }
    std::fs::remove_file(&path).unwrap();
}
