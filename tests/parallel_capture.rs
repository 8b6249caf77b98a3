//! Parallel-run capture, the last capture gap: an `Experiment::parallel`
//! run recorded to a `.wpt` file (one stream per core, pool tables in the
//! stream headers) replays **bit-identically** — the same
//! `RunSummary::to_json` — when every stream is re-attached to its core.
//! This closes the ROADMAP's "`run_parallel` capture is still open" item
//! and is the round-trip guarantee the `trace_tool record --parallel` /
//! `replay --mix --sixteen-core` CLI path rides on.

use whirlpool_repro::harness::{sixteen_core_config, Classification, Experiment, SchemeKind};
use wp_paws::SchedPolicy;
use wp_workloads::parallel::{ParallelSpec, RemoteKind};
use wp_workloads::Pattern;

/// A miniature connected-components-like parallel app: big enough to
/// schedule real steals across 16 cores, small enough for debug-mode CI.
fn mini_parallel() -> ParallelSpec {
    ParallelSpec {
        name: "cc-mini",
        partitions: 16,
        bytes_per_partition: 256 * 1024,
        pattern: Pattern::Uniform,
        rounds: 3,
        tasks_per_partition: 2,
        instrs_per_task: 40_000,
        accesses_per_task: 2_500,
        remote_frac: 0.3,
        remote_kind: RemoteKind::RandomCut,
        foreign_penalty: 1.5,
        duration_jitter: 0.4,
        seed: 5,
    }
}

fn temp(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("wp-par-cap-{}-{tag}.wpt", std::process::id()))
}

#[test]
fn parallel_capture_replays_bit_identically() {
    for (kind, policy) in [
        (SchemeKind::Whirlpool, SchedPolicy::Paws),
        (SchemeKind::Jigsaw, SchedPolicy::WorkStealing),
    ] {
        let path = temp(kind.label());
        let live = Experiment::parallel(kind, mini_parallel(), policy)
            .capture_to(&path)
            .run_full()
            .expect("parallel capture run");
        assert!(live.schedule.is_some(), "parallel runs carry a schedule");
        assert_eq!(live.summary.cores.len(), 16);
        assert!(live.summary.total_instructions() > 0);

        // Re-attach every stream to its own core on the same chip.
        let replayed = Experiment::replay_all(kind, &path)
            .system(sixteen_core_config())
            .run()
            .expect("parallel replay");
        assert_eq!(
            live.summary.to_json(),
            replayed.to_json(),
            "{kind:?} parallel capture diverged on replay"
        );
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn parallel_capture_has_one_stream_per_core_with_pools() {
    let path = temp("streams");
    Experiment::parallel(SchemeKind::Whirlpool, mini_parallel(), SchedPolicy::Paws)
        .capture_to(&path)
        .run()
        .expect("capture");
    let info = wp_trace::TraceInfo::scan(&path).expect("scan");
    assert_eq!(info.streams.len(), 16, "one stream per core");
    // Whirlpool's per-partition classification is recorded in the stream
    // headers, so the replay above can restore it.
    for s in &info.streams {
        assert_eq!(s.meta.pools.len(), 1, "stream {} pools", s.meta.id);
        assert!(s.meta.pools[0].name.starts_with("part"));
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn replaying_one_core_of_a_parallel_capture_works() {
    let path = temp("one-core");
    Experiment::parallel(SchemeKind::Whirlpool, mini_parallel(), SchedPolicy::Paws)
        .capture_to(&path)
        .run()
        .expect("capture");
    // Core 3's stream alone on core 0 of the 4-core chip: a valid
    // single-stream replay (the stream is finite; run to exhaustion).
    let out = Experiment::replay(SchemeKind::SNucaLru, &path, 3)
        .classification(Classification::None)
        .run()
        .expect("single-stream replay");
    assert!(out.cores[0].instructions > 0);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn oversubscribed_replay_of_a_parallel_capture_is_typed() {
    use whirlpool_repro::harness::HarnessError;
    let path = temp("oversub");
    Experiment::parallel(SchemeKind::Whirlpool, mini_parallel(), SchedPolicy::Paws)
        .capture_to(&path)
        .run()
        .expect("capture");
    // 16 streams do not fit the default 4-core chip.
    match Experiment::replay_all(SchemeKind::Whirlpool, &path).run() {
        Err(HarnessError::TooManyWorkloads { workloads, cores }) => {
            assert_eq!((workloads, cores), (16, 4));
        }
        other => panic!("expected TooManyWorkloads, got {other:?}"),
    }
    std::fs::remove_file(&path).unwrap();
}
