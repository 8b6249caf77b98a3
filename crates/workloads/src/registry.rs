//! The benchmark registry: models of the 31 memory-intensive apps the
//! paper evaluates (Appendix A: the 15 SPEC CPU2006 and 16 PBBS apps with
//! >5 L2 MPKI).
//!
//! Each model is calibrated to the behaviour the paper documents:
//!
//! * `delaunay` (dt) — 0.5/1.5/4 MB pools with a roughly even access split
//!   (Fig. 2), so intensity differs 8× between points and triangles.
//! * `MIS` — cache-friendly vertices + streaming edges (Fig. 9): the
//!   bypass showcase.
//! * `lbm` — two grids with alternating per-phase behaviour (Fig. 6).
//! * `refine` — irregular phase inversions (Fig. 11).
//! * `cactus` — one reused region + one near-streaming region (Fig. 19).
//! * `SA` — two large pools that both cache well (Fig. 20).
//!
//! The remaining apps get plausible pool structures of the same flavour
//! (sizes, patterns, skews); their *absolute* numbers are synthetic, but
//! the heterogeneity Whirlpool exploits — or its absence, e.g.
//! `libqntm`'s single pool — mirrors each benchmark's published character.

use crate::model::{AppSpec, Phase, PoolMix, PoolSpec};
use crate::pattern::Pattern;

const MB: u64 = 1024 * 1024;
const KB: u64 = 1024;

/// SPEC CPU2006 apps (Fig. 16 left group).
pub const SPEC_APPS: &[&str] = &[
    "bzip2", "gcc", "mcf", "milc", "zeus", "cactus", "leslie", "soplex", "gems", "libqntm", "lbm",
    "omnet", "astar", "sphinx3", "xalanc",
];

/// PBBS apps (Fig. 16 right group; all but nbody).
pub const PBBS_APPS: &[&str] = &[
    "BFS",
    "MIS",
    "MST",
    "SA",
    "ST",
    "delaunay",
    "dict",
    "hull",
    "isort",
    "matching",
    "neighbors",
    "ray",
    "refine",
    "remDups",
    "setCover",
    "sort",
];

/// All 31 single-threaded benchmarks.
pub fn all_apps() -> Vec<&'static str> {
    SPEC_APPS.iter().chain(PBBS_APPS.iter()).copied().collect()
}

/// The file path of a `trace:<path>` app name, or `None` for registry
/// names. Anywhere an app name is accepted, `trace:/path/to/run.wpt`
/// names a recorded `.wpt` trace instead of a synthetic model; the
/// harness replays it (`whirlpool_repro::harness::Experiment::single`),
/// since traces carry their own pool tables rather than an [`AppSpec`].
pub fn trace_path(name: &str) -> Option<&std::path::Path> {
    name.strip_prefix("trace:").map(std::path::Path::new)
}

fn seed_of(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn hot(frac: f64, weight: f64) -> Pattern {
    Pattern::HotCold {
        hot_frac: frac,
        hot_weight: weight,
    }
}

/// The reference-input (ref/large) model of a benchmark.
///
/// # Panics
///
/// Panics on an unknown name; use [`all_apps`] for the valid set.
pub fn spec(name: &str) -> AppSpec {
    let s = seed_of(name);
    match name {
        // ---------------- SPEC CPU2006 ----------------
        "bzip2" => AppSpec::steady(
            "bzip2",
            vec![
                PoolSpec::new("arr1", 3 * MB + MB / 2, Pattern::Uniform).with_callpoints(2),
                PoolSpec::new("arr2", 3 * MB + MB / 2, Pattern::Uniform),
                PoolSpec::new("ftab", 256 * KB, hot(0.15, 0.85)),
                PoolSpec::new("tt", 3 * MB / 2, Pattern::Sweep),
            ],
            &[10.0, 8.0, 6.0, 6.0],
            30.0,
            s,
        ),
        "gcc" => {
            // Heavy phase variability: two phases with shifted weights;
            // finer pools make the phase changes slightly worse (Fig. 16).
            let pools = vec![
                PoolSpec::new("ir", 2 * MB, hot(0.2, 0.8)).with_callpoints(4),
                PoolSpec::new("misc", 3 * MB, Pattern::Uniform).with_callpoints(3),
            ];
            AppSpec {
                name: "gcc",
                pools,
                phases: vec![
                    Phase {
                        duration_instrs: 3_000_000,
                        mix: vec![PoolMix::new(0, 11.0), PoolMix::new(1, 4.0)],
                    },
                    Phase {
                        duration_instrs: 3_000_000,
                        mix: vec![
                            PoolMix::new(0, 5.0).with_pattern(Pattern::Uniform),
                            PoolMix::new(1, 10.0),
                        ],
                    },
                ],
                apki: 15.0,
                phase_jitter: 0.4,
                seed: s,
            }
        }
        "mcf" => AppSpec::steady(
            "mcf",
            vec![
                PoolSpec::new("nodes", 2 * MB, Pattern::Chase),
                PoolSpec::new("arcs", 7 * MB, Pattern::Uniform),
            ],
            &[30.0, 50.0],
            80.0,
            s,
        ),
        "milc" => AppSpec::steady(
            "milc",
            vec![
                PoolSpec::new("lattice", 10 * MB, Pattern::Sweep).with_callpoints(2),
                PoolSpec::new("tmp", 512 * KB, Pattern::Uniform),
            ],
            &[30.0, 10.0],
            40.0,
            s,
        ),
        "zeus" => AppSpec::steady(
            "zeus",
            vec![
                PoolSpec::new("grids", 7 * MB, Pattern::Sweep).with_callpoints(3),
                PoolSpec::new("work", MB, Pattern::Uniform),
            ],
            &[18.0, 7.0],
            25.0,
            s,
        ),
        "cactus" => AppSpec::steady(
            // Fig. 19: one region with good reuse (cache near the core) +
            // one with almost none (bypass).
            "cactus",
            vec![
                PoolSpec::new("pugh", MB + MB / 4, Pattern::Uniform),
                PoolSpec::new("grid", 10 * MB, Pattern::Sweep),
            ],
            &[6.0, 6.0],
            12.0,
            s,
        ),
        "leslie" => AppSpec::steady(
            "leslie",
            vec![
                PoolSpec::new("fields", 6 * MB, Pattern::Sweep).with_callpoints(3),
                PoolSpec::new("bounds", 768 * KB, Pattern::Uniform),
            ],
            &[22.0, 8.0],
            30.0,
            s,
        ),
        "soplex" => AppSpec::steady(
            "soplex",
            vec![
                PoolSpec::new("matrix", 5 * MB, Pattern::Uniform).with_callpoints(2),
                PoolSpec::new("vectors", 512 * KB, hot(0.2, 0.85)),
            ],
            &[25.0, 10.0],
            35.0,
            s,
        ),
        "gems" => AppSpec::steady(
            "gems",
            vec![
                PoolSpec::new("fields", 9 * MB, Pattern::Sweep).with_callpoints(3),
                PoolSpec::new("consts", 512 * KB, hot(0.2, 0.9)),
            ],
            &[35.0, 10.0],
            45.0,
            s,
        ),
        "libqntm" => AppSpec::steady(
            // A single homogeneous structure: classification cannot help.
            "libqntm",
            vec![PoolSpec::new("qreg", 4 * MB, Pattern::Sweep)],
            &[60.0],
            60.0,
            s,
        ),
        "lbm" => {
            // Fig. 6: both grids are far larger than the LLC; the *source*
            // grid enjoys stencil reuse within a trailing window (the
            // 19-point neighbourhood re-reads recent rows), while the
            // *destination* is write-streamed with no reuse. The roles swap
            // every timestep, so on average the grids are identical — only
            // per-phase (dynamic) policies can tell them apart (Sec. 2.2).
            let src = Pattern::WindowedSweep {
                window_frac: 0.08, // ~1.6 MB window of a 20 MB grid
                revisit: 0.65,
            };
            let pools = vec![
                PoolSpec::new("grid1", 20 * MB, src),
                PoolSpec::new("grid2", 20 * MB, Pattern::Sweep),
            ];
            AppSpec {
                name: "lbm",
                pools,
                phases: vec![
                    Phase {
                        duration_instrs: 12_000_000,
                        mix: vec![
                            PoolMix::new(0, 55.0).with_pattern(src),
                            PoolMix::new(1, 35.0).with_pattern(Pattern::Sweep),
                        ],
                    },
                    Phase {
                        duration_instrs: 12_000_000,
                        mix: vec![
                            PoolMix::new(0, 35.0).with_pattern(Pattern::Sweep),
                            PoolMix::new(1, 55.0).with_pattern(src),
                        ],
                    },
                ],
                apki: 90.0,
                phase_jitter: 0.0,
                seed: s,
            }
        }
        "omnet" => AppSpec::steady(
            "omnet",
            vec![
                PoolSpec::new("evheap", 768 * KB, hot(0.15, 0.85)).with_callpoints(2),
                PoolSpec::new("modules", 2 * MB + MB / 2, Pattern::Chase).with_callpoints(3),
                PoolSpec::new("msgs", MB + MB / 2, Pattern::Uniform).with_callpoints(2),
            ],
            &[12.0, 12.0, 6.0],
            30.0,
            s,
        ),
        "astar" => AppSpec::steady(
            "astar",
            vec![
                PoolSpec::new("graph", 3 * MB, Pattern::Chase),
                PoolSpec::new("open", 512 * KB, hot(0.2, 0.9)),
            ],
            &[18.0, 7.0],
            25.0,
            s,
        ),
        "sphinx3" => AppSpec::steady(
            "sphinx3",
            vec![
                PoolSpec::new("model", 4 * MB + MB / 2, Pattern::Uniform).with_callpoints(2),
                PoolSpec::new("dict", 320 * KB, hot(0.25, 0.85)),
            ],
            &[14.0, 6.0],
            20.0,
            s,
        ),
        "xalanc" => AppSpec::steady(
            "xalanc",
            vec![
                PoolSpec::new("dom", 2 * MB + MB / 2, Pattern::Chase).with_callpoints(3),
                PoolSpec::new("strings", MB, hot(0.2, 0.8)).with_callpoints(2),
                PoolSpec::new("temp", MB, Pattern::Sweep),
            ],
            &[18.0, 9.0, 5.0],
            32.0,
            s,
        ),
        // ---------------- PBBS ----------------
        "BFS" => AppSpec::steady(
            "BFS",
            vec![
                PoolSpec::new("vertices", MB + MB / 2, Pattern::Uniform),
                PoolSpec::new("edges", 6 * MB, Pattern::Sweep),
                PoolSpec::new("frontier", 320 * KB, hot(0.3, 0.85)),
                PoolSpec::new("visited", 768 * KB, Pattern::Uniform),
            ],
            &[15.0, 30.0, 8.0, 7.0],
            60.0,
            s,
        ),
        "MIS" => AppSpec::steady(
            // Fig. 9: vertices' miss curve falls to ~0 by ~11 MB; edges
            // stream far beyond the LLC. The bypass showcase (38% speedup).
            "MIS",
            vec![
                PoolSpec::new("vertices", 10 * MB, Pattern::Uniform),
                PoolSpec::new("edges", 24 * MB, Pattern::Sweep),
            ],
            &[45.0, 90.0],
            135.0,
            s,
        ),
        "MST" => AppSpec::steady(
            "MST",
            vec![
                PoolSpec::new("parents", MB, Pattern::Chase),
                PoolSpec::new("tree", 512 * KB, Pattern::Uniform),
                PoolSpec::new("edges", 6 * MB, Pattern::Sweep),
            ],
            &[20.0, 10.0, 40.0],
            70.0,
            s,
        ),
        "SA" => AppSpec::steady(
            // Fig. 20: both pools cache well; Whirlpool spends *more*
            // banks to keep the working set on chip.
            "SA",
            vec![
                PoolSpec::new("text", 3 * MB, Pattern::Uniform),
                PoolSpec::new("sa", 9 * MB, Pattern::Uniform),
            ],
            &[25.0, 45.0],
            70.0,
            s,
        ),
        "ST" => AppSpec::steady(
            "ST",
            vec![
                PoolSpec::new("parents", MB, Pattern::Chase),
                PoolSpec::new("tree", 512 * KB, Pattern::Uniform),
                PoolSpec::new("edges", 5 * MB, Pattern::Sweep),
            ],
            &[15.0, 8.0, 27.0],
            50.0,
            s,
        ),
        "delaunay" => AppSpec::steady(
            // Fig. 2: 6 MB working set, even access split, 8x intensity
            // spread between points and triangles.
            "delaunay",
            vec![
                PoolSpec::new("points", MB / 2, Pattern::Uniform),
                PoolSpec::new("vertices", 3 * MB / 2, Pattern::Uniform),
                PoolSpec::new("triangles", 4 * MB, Pattern::Uniform),
            ],
            &[8.0, 8.0, 9.0],
            25.0,
            s,
        ),
        "dict" => AppSpec::steady(
            "dict",
            vec![
                PoolSpec::new("table", 3 * MB, hot(0.25, 0.85)),
                PoolSpec::new("keys", 2 * MB, Pattern::Sweep),
            ],
            &[30.0, 15.0],
            45.0,
            s,
        ),
        "hull" => AppSpec::steady(
            "hull",
            vec![
                PoolSpec::new("points", 2 * MB + MB / 2, Pattern::Uniform),
                PoolSpec::new("hullarr", 128 * KB, hot(0.3, 0.9)),
            ],
            &[24.0, 6.0],
            30.0,
            s,
        ),
        "isort" => AppSpec::steady(
            "isort",
            vec![
                PoolSpec::new("keys", 5 * MB, Pattern::Sweep),
                PoolSpec::new("buckets", 512 * KB, hot(0.2, 0.85)),
            ],
            &[35.0, 15.0],
            50.0,
            s,
        ),
        "matching" => AppSpec::steady(
            "matching",
            vec![
                PoolSpec::new("vertices", MB + MB / 4, Pattern::Uniform),
                PoolSpec::new("edges", 5 * MB, Pattern::Sweep),
                PoolSpec::new("result", 512 * KB, Pattern::Uniform),
            ],
            &[15.0, 35.0, 10.0],
            60.0,
            s,
        ),
        "neighbors" => AppSpec::steady(
            "neighbors",
            vec![
                PoolSpec::new("points", 3 * MB, Pattern::Uniform),
                PoolSpec::new("kdtree", MB + MB / 2, Pattern::Chase),
            ],
            &[30.0, 25.0],
            55.0,
            s,
        ),
        "ray" => AppSpec::steady(
            "ray",
            vec![
                PoolSpec::new("triangles", 3 * MB, Pattern::Uniform),
                PoolSpec::new("bvh", MB, Pattern::Chase),
                PoolSpec::new("rays", MB, Pattern::Sweep),
            ],
            &[20.0, 15.0, 5.0],
            40.0,
            s,
        ),
        "refine" => {
            // Fig. 11: long quiet stretches, then ~irregular inversions
            // where vertices stream, triangles fit, and misc blows up.
            let pools = vec![
                PoolSpec::new("vertices", 6 * MB, Pattern::Uniform),
                PoolSpec::new("triangles", 2 * MB + MB / 2, Pattern::Sweep),
                PoolSpec::new("misc", 3 * MB, hot(0.3, 0.9)),
            ];
            AppSpec {
                name: "refine",
                pools,
                phases: vec![
                    Phase {
                        duration_instrs: 9_000_000,
                        mix: vec![
                            PoolMix::new(0, 14.0).with_pattern(Pattern::Uniform),
                            PoolMix::new(1, 12.0).with_pattern(Pattern::Sweep),
                            PoolMix::new(2, 9.0).with_pattern(hot(0.3, 0.9)),
                        ],
                    },
                    Phase {
                        duration_instrs: 1_500_000,
                        mix: vec![
                            PoolMix::new(0, 14.0).with_pattern(Pattern::Sweep),
                            PoolMix::new(1, 12.0).with_pattern(Pattern::Uniform),
                            PoolMix::new(2, 9.0).with_pattern(Pattern::Uniform),
                        ],
                    },
                ],
                apki: 35.0,
                phase_jitter: 0.5,
                seed: s,
            }
        }
        "remDups" => AppSpec::steady(
            "remDups",
            vec![
                PoolSpec::new("hash", 2 * MB + MB / 2, hot(0.3, 0.8)),
                PoolSpec::new("input", 5 * MB, Pattern::Sweep),
            ],
            &[30.0, 25.0],
            55.0,
            s,
        ),
        "setCover" => AppSpec::steady(
            "setCover",
            vec![
                PoolSpec::new("sets", 5 * MB, Pattern::Sweep).with_callpoints(2),
                PoolSpec::new("flags", MB, Pattern::Uniform),
            ],
            &[30.0, 15.0],
            45.0,
            s,
        ),
        "sort" => AppSpec::steady(
            "sort",
            vec![
                PoolSpec::new("keys", 6 * MB, Pattern::Sweep),
                PoolSpec::new("temp", 6 * MB, Pattern::Sweep),
            ],
            &[30.0, 25.0],
            55.0,
            s,
        ),
        other => {
            assert!(
                trace_path(other).is_none(),
                "'{other}' is a recorded trace, not a registry model; \
                 resolve it through the harness entry points"
            );
            panic!("unknown benchmark '{other}'")
        }
    }
}

/// The training-input (train/small) model, for WhirlTool's profiling runs
/// (Sec. 4.1/4.4). Most apps simply shrink; the four Fig.-18-sensitive
/// apps also shift behaviour, which is what costs WhirlTool performance
/// when profiling on them.
pub fn train_spec(name: &str) -> AppSpec {
    let base = spec(name).scaled(0.4);
    match name {
        "leslie" => {
            // Training input fits caches: the fields look reusable.
            let mut s = base;
            s.pools[0].pattern = Pattern::Uniform;
            s
        }
        "omnet" => {
            // Small network: module state looks hot instead of chased.
            let mut s = base;
            s.pools[1].pattern = hot(0.3, 0.8);
            s
        }
        "xalanc" => {
            // Small document: temp buffers dominate differently.
            let mut s = base;
            s.phases[0].mix[2].weight = 12.0;
            s
        }
        "setCover" => {
            // Small instance: sets get reuse.
            let mut s = base;
            s.pools[0].pattern = Pattern::Uniform;
            s
        }
        _ => base,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::AppModel;
    use wp_sim::Workload;

    #[test]
    fn registry_has_31_apps() {
        assert_eq!(SPEC_APPS.len(), 15);
        assert_eq!(PBBS_APPS.len(), 16);
        assert_eq!(all_apps().len(), 31);
    }

    #[test]
    fn all_specs_instantiate() {
        for name in all_apps() {
            let s = spec(name);
            assert_eq!(s.name, name);
            assert!(s.apki > 5.0, "{name}: the paper selects >5 L2 MPKI apps");
            assert!(!s.pools.is_empty());
            assert!(!s.phases.is_empty());
            let m = AppModel::new(s);
            let mut t = m.trace();
            for _ in 0..100 {
                assert!(t.next_event().is_some());
            }
        }
    }

    #[test]
    fn dt_matches_fig2() {
        let s = spec("delaunay");
        assert_eq!(s.pools.len(), 3);
        assert_eq!(s.footprint(), 6 * MB);
        assert_eq!(s.pools[0].bytes, MB / 2);
        assert_eq!(s.pools[2].bytes, 4 * MB);
    }

    #[test]
    fn mis_has_streaming_edges() {
        let s = spec("MIS");
        assert!(matches!(s.pools[1].pattern, Pattern::Sweep));
        assert!(s.pools[1].bytes > 12 * MB, "edges exceed the LLC");
        assert!(s.pools[0].bytes < 13 * MB, "vertices fit the LLC");
    }

    #[test]
    fn lbm_phases_invert() {
        let s = spec("lbm");
        assert_eq!(s.phases.len(), 2);
        let w0 = s.phases[0].mix[0].weight;
        let w1 = s.phases[1].mix[0].weight;
        assert!(w0 > w1, "grid1 hot in phase 0, cold in phase 1");
    }

    #[test]
    fn refine_has_irregular_phases() {
        let s = spec("refine");
        assert!(s.phase_jitter > 0.0);
        assert!(s.phases[0].duration_instrs > s.phases[1].duration_instrs);
    }

    #[test]
    fn train_specs_differ_for_sensitive_apps() {
        for name in ["leslie", "omnet", "xalanc", "setCover"] {
            let r = spec(name);
            let t = train_spec(name);
            assert!(t.footprint() < r.footprint(), "{name}: train is smaller");
        }
        // Robust app: train is a pure scale-down.
        let r = spec("delaunay");
        let t = train_spec("delaunay");
        assert_eq!(r.pools[0].pattern, t.pools[0].pattern);
    }

    #[test]
    #[should_panic(expected = "unknown benchmark")]
    fn unknown_app_panics() {
        spec("doom");
    }

    #[test]
    fn trace_uris_are_recognized() {
        assert_eq!(
            trace_path("trace:/tmp/run.wpt"),
            Some(std::path::Path::new("/tmp/run.wpt"))
        );
        assert_eq!(trace_path("delaunay"), None);
    }

    #[test]
    #[should_panic(expected = "recorded trace")]
    fn trace_uri_in_spec_panics_helpfully() {
        spec("trace:/tmp/run.wpt");
    }

    #[test]
    fn manual_table2_apps_exist_in_registry() {
        // Every Table 2 app key that is a single-threaded benchmark
        // resolves (BFS..cactus).
        for key in [
            "BFS", "delaunay", "matching", "refine", "MIS", "ST", "MST", "hull", "bzip2", "lbm",
            "mcf", "cactus",
        ] {
            let _ = spec(key);
        }
    }
}
