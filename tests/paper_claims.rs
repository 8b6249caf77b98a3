//! Qualitative paper claims verified end to end on small, fast models:
//! who wins, and in the right direction — the shape the reproduction
//! must preserve.

use std::collections::HashMap;

use whirlpool_repro::harness::{four_core_config, Classification, Experiment, SchemeKind};
use wp_mem::{CallpointId, PageId};
use wp_paws::SchedPolicy;
use wp_sim::RunSummary;
use wp_whirltool::{cluster, profile, ProfilerConfig};
use wp_workloads::parallel::{ParallelSpec, RemoteKind};
use wp_workloads::{AppModel, AppSpec, Pattern, PoolSpec};

/// mis in miniature: cache-friendly vertices + streaming edges.
fn small_mis() -> AppSpec {
    AppSpec::steady(
        "small-mis",
        vec![
            PoolSpec::new("vertices", 1024 * 1024, Pattern::Uniform),
            PoolSpec::new("edges", 24 * 1024 * 1024, Pattern::Sweep),
        ],
        &[45.0, 90.0],
        135.0,
        11,
    )
}

fn run(kind: SchemeKind, spec: AppSpec, manual: bool, instrs: u64) -> RunSummary {
    let mut sys = four_core_config();
    sys.reconfig_interval_cycles = 400_000;
    let model = AppModel::new(spec);
    let pools = if manual {
        model.descriptors_manual()
    } else {
        Vec::new()
    };
    Experiment::bundles(kind, vec![model.bundle(pools)])
        .system(sys)
        .warmup(instrs / 2)
        .measure(instrs)
        .run()
        .expect("bespoke-model run")
}

#[test]
fn whirlpool_beats_jigsaw_and_snuca_on_mis_shape() {
    let instrs = 3_000_000;
    let snuca = run(SchemeKind::SNucaLru, small_mis(), false, instrs);
    let jig = run(SchemeKind::Jigsaw, small_mis(), false, instrs);
    let wp = run(SchemeKind::Whirlpool, small_mis(), true, instrs);
    // Ordering: Whirlpool <= Jigsaw <= S-NUCA in cycles (Fig. 10).
    assert!(
        wp.cores[0].cycles < jig.cores[0].cycles,
        "Whirlpool {} vs Jigsaw {}",
        wp.cores[0].cycles,
        jig.cores[0].cycles
    );
    assert!(jig.cores[0].cycles < snuca.cores[0].cycles * 1.05);
    // Whirlpool bypasses the streaming edges.
    assert!(
        wp.cores[0].llc_bpki() > 10.0,
        "edges should bypass, got {:.1} BPKI",
        wp.cores[0].llc_bpki()
    );
}

#[test]
fn bypassing_helps_whirlpool_more_than_jigsaw() {
    // Fig. 21's ablation: without bypassing, Whirlpool loses more than
    // Jigsaw (1.2% vs 0.2% in the paper) because only Whirlpool can
    // isolate no-reuse pools.
    let instrs = 3_000_000;
    let wp = run(SchemeKind::Whirlpool, small_mis(), true, instrs);
    let wp_nb = run(SchemeKind::WhirlpoolNoBypass, small_mis(), true, instrs);
    assert!(
        wp.cores[0].cycles <= wp_nb.cores[0].cycles * 1.005,
        "bypassing must not hurt Whirlpool"
    );
    assert!(wp.energy_per_ki() < wp_nb.energy_per_ki());
}

#[test]
fn whirltool_recovers_the_manual_classification() {
    // WhirlTool's clustering on the mini-mis groups the vertices callpoint
    // apart from the edges callpoint (the Sec. 4.4 "matches manual" claim,
    // structurally).
    let model = AppModel::new(small_mis());
    let page_map: HashMap<PageId, CallpointId> = model
        .callpoints()
        .iter()
        .flat_map(|(cp, _, pages)| pages.iter().map(move |p| (*p, *cp)))
        .collect();
    let mut trace = model.trace();
    let data = profile(
        &mut trace,
        &page_map,
        ProfilerConfig {
            interval_instrs: 500_000,
            total_instrs: 3_000_000,
            granule_lines: 256,
            curve_points: 101,
        },
    );
    let tree = cluster(&data, 100);
    let assignment = tree.assignment(2);
    let by_pool: Vec<usize> = model
        .callpoints()
        .iter()
        .map(|(cp, _, _)| assignment[cp])
        .collect();
    // vertices callpoint != edges callpoint cluster.
    assert_ne!(by_pool[0], by_pool[1], "pools must separate");
}

#[test]
fn awasthi_sticks_to_four_banks_idealspd_multi_lookups() {
    // The two baseline pathologies of Fig. 10.
    let instrs = 2_000_000;
    let aw = run(SchemeKind::Awasthi, small_mis(), false, instrs);
    let spd = run(SchemeKind::IdealSpd, small_mis(), false, instrs);
    // Awasthi: more misses than Jigsaw (stuck allocation).
    let jig = run(SchemeKind::Jigsaw, small_mis(), false, instrs);
    assert!(aw.cores[0].llc_mpki() > jig.cores[0].llc_mpki());
    // IdealSPD: highest bank energy (multi-level lookups).
    assert!(spd.energy.bank_nj > jig.energy.bank_nj);
}

#[test]
fn paws_with_whirlpool_wins_on_parallel_apps() {
    let spec = ParallelSpec {
        name: "cc-mini",
        partitions: 16,
        bytes_per_partition: 512 * 1024,
        pattern: Pattern::Uniform,
        rounds: 4,
        tasks_per_partition: 2,
        instrs_per_task: 60_000,
        accesses_per_task: 4_000,
        remote_frac: 0.35,
        remote_kind: RemoteKind::RandomCut,
        foreign_penalty: 1.5,
        duration_jitter: 0.4,
        seed: 5,
    };
    let mut sys = whirlpool_repro::harness::sixteen_core_config();
    sys.reconfig_interval_cycles = 400_000;

    let mut makespans = Vec::new();
    for (kind, policy, classify) in [
        (SchemeKind::Jigsaw, SchedPolicy::WorkStealing, false),
        (SchemeKind::Whirlpool, SchedPolicy::Paws, true),
    ] {
        let classification = if classify {
            Classification::Manual // → one pool per partition
        } else {
            Classification::None
        };
        let out = Experiment::parallel(kind, spec.clone(), policy)
            .system(sys.clone())
            .classification(classification)
            .seed(9)
            .run()
            .expect("parallel run");
        makespans.push(out.cores.iter().map(|c| c.cycles).fold(0.0, f64::max));
    }
    assert!(
        makespans[1] < makespans[0],
        "W+PaWS {} must beat Jigsaw+WS {}",
        makespans[1],
        makespans[0]
    );
}

#[test]
fn weighted_speedup_of_whirlpool_mixes_is_positive() {
    // Fig. 22 shape on one small 4-app mix.
    let mut sys = four_core_config();
    sys.reconfig_interval_cycles = 400_000;
    let apps = ["small-a", "small-b", "small-c", "small-d"];
    let specs: Vec<AppSpec> = (0..4)
        .map(|i| {
            AppSpec::steady(
                apps[i],
                vec![
                    PoolSpec::new("hot", 256 * 1024 * (i as u64 + 1), Pattern::Uniform),
                    PoolSpec::new("cold", 2 * 1024 * 1024, Pattern::Sweep),
                ],
                &[30.0, 20.0],
                50.0,
                i as u64,
            )
        })
        .collect();
    let run_all = |kind: SchemeKind, manual: bool| -> Vec<f64> {
        let bundles = specs
            .iter()
            .map(|spec| {
                let model = AppModel::new(spec.clone());
                let pools = if manual {
                    model.descriptors_manual()
                } else {
                    Vec::new()
                };
                model.bundle(pools)
            })
            .collect();
        let out = Experiment::bundles(kind, bundles)
            .system(sys.clone())
            .warmup(5_000_000)
            .measure(3_000_000)
            .run()
            .expect("mix of bespoke models");
        out.cores.iter().map(|c| c.ipc()).collect()
    };
    let jig = run_all(SchemeKind::Jigsaw, false);
    let wp = run_all(SchemeKind::Whirlpool, true);
    let ws = wp_workloads::mix::weighted_speedup(&wp, &jig);
    assert!(
        ws > 0.97,
        "Whirlpool should not lose on mixes: weighted speedup {ws:.3}"
    );
}
