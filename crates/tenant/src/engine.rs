//! The scenario engine: drives a [`Scenario`]'s churn over the
//! existing [`Experiment`] spine, once per scheme, and folds the
//! per-epoch run summaries into tenant-level metrics.
//!
//! The schedule is *static*: residency windows come from the scenario
//! file (or its deterministic churn synthesis), admission is
//! first-come-first-served by (arrival, file order) onto the chip's
//! cores, and every scheme replays the identical schedule. Schemes
//! therefore differ only in how well the shared LLC serves the admitted
//! set — which is exactly the comparison the multi-tenant evaluation
//! wants. Each non-empty epoch is one fixed-work `Experiment::mix` run;
//! membership changes between epochs re-trigger the scheme's
//! classification and allocation from scratch, modelling the
//! reconfiguration a real deployment performs on arrival/departure.
//!
//! Everything downstream of the schedule is deterministic: the report's
//! [`ScenarioReport::to_json`] line and the tenant timeline are
//! bit-identical whatever `WP_JOBS` or the daemon/CLI split.

use std::collections::HashMap;

use whirlpool_repro::harness::{
    sixteen_core_config, CancelToken, Experiment, HarnessError, SchemeKind,
};
use wp_bench::sweep::{default_jobs, parallel_map, CellWork, SweepSpec};
use wp_obs::{fmt_f64, quote, TenantEvent, TenantEventKind};

use crate::metrics::{jain_index, slo_violation_fraction, weighted_speedup, MetricError};
use crate::scenario::{Scenario, SloTarget};

/// Engine knobs. Unset fields fall back to the same environment
/// default the sweep engine uses (`WP_JOBS`).
#[derive(Debug, Clone, Default)]
pub struct ScenarioOpts {
    /// Worker threads for the alone grid and the per-scheme fan-out.
    pub jobs: Option<usize>,
    /// Cooperative cancellation, checked between epochs.
    pub cancel: Option<CancelToken>,
}

/// One tenant's outcome under one scheme.
#[derive(Debug, Clone)]
pub struct TenantOutcome {
    /// Tenant name from the scenario file.
    pub name: String,
    /// Its workload.
    pub app: String,
    /// Its weight in the weighted-speedup metric.
    pub weight: f64,
    /// IPC of the app running alone on the same chip under the same
    /// scheme (the normalization baseline).
    pub alone_ipc: f64,
    /// Normalized progress: shared-run IPC over [`alone_ipc`]
    /// (0 when the tenant was never admitted).
    ///
    /// [`alone_ipc`]: TenantOutcome::alone_ipc
    pub progress: f64,
    /// Instructions retired across all admitted epochs.
    pub instructions: u64,
    /// Core cycles across all admitted epochs.
    pub cycles: f64,
    /// Cumulative LLC miss ratio over admitted epochs (misses +
    /// bypasses over accesses + bypasses; 0 when idle).
    pub miss_ratio: f64,
    /// Epochs the tenant held a core.
    pub epochs_admitted: u64,
    /// Epochs the tenant was resident but queued out.
    pub epochs_waiting: u64,
    /// Epochs the tenant's SLO was violated (waiting epochs included).
    pub epochs_violating: u64,
    /// Whether the tenant declared an SLO at all.
    pub has_slo: bool,
}

/// One scheme's scenario outcome: per-tenant accounting plus the three
/// headline metrics.
#[derive(Debug, Clone)]
pub struct SchemeOutcome {
    /// The scheme that ran.
    pub scheme: SchemeKind,
    /// Per-tenant outcomes, in scenario file order.
    pub tenants: Vec<TenantOutcome>,
    /// `n · Σ(wᵢxᵢ)/Σwᵢ` over normalized progress.
    pub weighted_speedup: f64,
    /// Jain's fairness index over normalized progress.
    pub jain_fairness: f64,
    /// Violating over resident tenant-epochs, across SLO'd tenants;
    /// `None` when no tenant declares an SLO.
    pub slo_violation_fraction: Option<f64>,
    /// The scheme's tenant timeline (arrive/depart/admit/wait/violate).
    pub events: Vec<TenantEvent>,
}

/// A completed scenario: one [`SchemeOutcome`] per requested scheme,
/// in request order.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: String,
    /// Scenario seed (reported so the line is self-describing).
    pub seed: u64,
    /// Chip size the scenario ran on.
    pub cores: usize,
    /// Epoch count.
    pub epochs: u64,
    /// Per-core fixed-work budget per epoch.
    pub epoch_instrs: u64,
    /// Per-scheme outcomes.
    pub schemes: Vec<SchemeOutcome>,
}

/// The static schedule: which tenants run, wait, arrive, and depart at
/// every epoch. Identical for every scheme by construction.
struct Schedule {
    /// `admitted[e]` = tenant indices holding cores at epoch `e`.
    admitted: Vec<Vec<usize>>,
    /// `waiting[e]` = resident tenant indices without a core.
    waiting: Vec<Vec<usize>>,
}

fn build_schedule(scenario: &Scenario) -> Schedule {
    let mut admitted = Vec::with_capacity(scenario.epochs as usize);
    let mut waiting = Vec::with_capacity(scenario.epochs as usize);
    for e in 0..scenario.epochs {
        let mut resident: Vec<usize> = scenario
            .tenants
            .iter()
            .enumerate()
            .filter(|(_, t)| t.arrival <= e && e < t.departure)
            .map(|(i, _)| i)
            .collect();
        // First-come-first-served: earliest arrival wins a core, file
        // order breaks ties (resident is already in file order).
        resident.sort_by_key(|&i| (scenario.tenants[i].arrival, i));
        let cut = resident.len().min(scenario.cores);
        let mut adm = resident[..cut].to_vec();
        adm.sort_unstable();
        let mut wai = resident[cut..].to_vec();
        wai.sort_unstable();
        admitted.push(adm);
        waiting.push(wai);
    }
    Schedule { admitted, waiting }
}

/// Per-epoch workload seed: every scheme sees the identical interleave
/// seed so the comparison isolates the LLC scheme.
fn epoch_seed(scenario_seed: u64, epoch: u64) -> u64 {
    let mut z = scenario_seed ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `scenario` under every scheme in `kinds`.
///
/// The alone-run baselines (one grid cell per distinct app per scheme)
/// run first through the sweep engine, then the schemes fan out across
/// the same worker pool, each replaying the schedule epoch by epoch.
///
/// # Errors
///
/// Any [`HarnessError`] from the underlying experiments, a
/// [`HarnessError::Scenario`] wrapping a degenerate metric input, or
/// [`HarnessError::Cancelled`].
pub fn run_scenario(
    scenario: &Scenario,
    kinds: &[SchemeKind],
    opts: &ScenarioOpts,
) -> Result<ScenarioReport, HarnessError> {
    if kinds.is_empty() {
        return Err(HarnessError::Scenario(
            "scenario needs at least one scheme to evaluate".into(),
        ));
    }
    let cores16 = scenario.cores == 16;
    let apps = scenario.distinct_apps();

    // Alone baselines: one single-entry mix per (scheme, app), warmed
    // exactly like the shared epochs they normalize.
    let mut spec = SweepSpec::alone_grid(kinds, &apps, scenario.epoch_instrs, cores16)
        .budgets(scenario.warmup_instrs, scenario.epoch_instrs);
    if let Some(j) = opts.jobs {
        spec = spec.jobs(j);
    }
    if let Some(c) = &opts.cancel {
        spec = spec.cancel_token(c.clone());
    }
    let alone = spec.run()?;
    let mut alone_ipc: HashMap<(SchemeKind, String), f64> = HashMap::new();
    for cell in &alone.cells {
        if let CellWork::Mix { apps, .. } = &cell.work {
            alone_ipc.insert((cell.scheme, apps[0].clone()), cell.summary.cores[0].ipc());
        }
    }

    let schedule = build_schedule(scenario);
    let jobs = opts.jobs.unwrap_or_else(default_jobs);
    let outcomes = parallel_map(jobs, kinds.len(), |k| {
        run_one_scheme(scenario, kinds[k], &schedule, &alone_ipc, opts)
    })?;

    Ok(ScenarioReport {
        name: scenario.name.clone(),
        seed: scenario.seed,
        cores: scenario.cores,
        epochs: scenario.epochs,
        epoch_instrs: scenario.epoch_instrs,
        schemes: outcomes,
    })
}

/// One tenant's running totals while the schedule replays.
#[derive(Default, Clone)]
struct Account {
    instructions: u64,
    cycles: f64,
    accesses: u64,
    misses: u64,
    admitted: u64,
    waiting: u64,
    violating: u64,
}

fn run_one_scheme(
    scenario: &Scenario,
    kind: SchemeKind,
    schedule: &Schedule,
    alone_ipc: &HashMap<(SchemeKind, String), f64>,
    opts: &ScenarioOpts,
) -> Result<SchemeOutcome, HarnessError> {
    let label = kind.label().to_string();
    let mut accounts = vec![Account::default(); scenario.tenants.len()];
    let mut events: Vec<TenantEvent> = Vec::new();
    let push = |events: &mut Vec<TenantEvent>, epoch: u64, tenant: &str, k: TenantEventKind| {
        events.push(TenantEvent {
            scheme: label.clone(),
            epoch,
            tenant: tenant.to_string(),
            kind: k,
        });
    };

    for e in 0..scenario.epochs {
        // Fault-injection probes mirror the sweep cell loop: a scenario
        // worker can be made to panic (exercising `parallel_map`'s
        // catch_unwind isolation) or stall (exercising cancel deadlines)
        // at a seeded epoch.
        if wp_fault::fire(wp_fault::FaultPoint::WorkerPanic).is_some() {
            wp_obs::add(wp_obs::Counter::FaultsInjected, 1);
            panic!("injected worker fault");
        }
        if let Some(shot) = wp_fault::fire(wp_fault::FaultPoint::WorkerSlow) {
            wp_obs::add(wp_obs::Counter::FaultsInjected, 1);
            std::thread::sleep(std::time::Duration::from_millis(shot.millis));
        }
        if let Some(c) = &opts.cancel {
            if c.is_cancelled() {
                return Err(HarnessError::Cancelled);
            }
        }
        // Membership-change events first, in tenant file order.
        for (i, t) in scenario.tenants.iter().enumerate() {
            if t.arrival == e {
                push(&mut events, e, &t.name, TenantEventKind::Arrive);
                wp_obs::add(wp_obs::Counter::TenantArrivals, 1);
            }
            if t.departure == e {
                push(&mut events, e, &t.name, TenantEventKind::Depart);
                wp_obs::add(wp_obs::Counter::TenantDepartures, 1);
            }
            let _ = i;
        }
        let admitted = &schedule.admitted[e as usize];
        let waiting = &schedule.waiting[e as usize];
        for &i in waiting {
            let t = &scenario.tenants[i];
            accounts[i].waiting += 1;
            push(&mut events, e, &t.name, TenantEventKind::Wait);
            if t.slo.is_some() {
                // A queued-out tenant delivers nothing, so any SLO it
                // declared is violated for the whole epoch.
                accounts[i].violating += 1;
                push(&mut events, e, &t.name, TenantEventKind::Violate);
                wp_obs::add(wp_obs::Counter::TenantSloViolations, 1);
            }
        }
        if admitted.is_empty() {
            continue;
        }
        let apps: Vec<&str> = admitted
            .iter()
            .map(|&i| scenario.tenants[i].app.as_str())
            .collect();
        // Each epoch re-runs Experiment::mix from scratch: the scheme
        // re-classifies and re-allocates for the new membership, which
        // is the reconfiguration a real arrival/departure triggers.
        let mut exp = Experiment::mix(kind, &apps)
            .warmup(scenario.warmup_instrs)
            .measure(scenario.epoch_instrs)
            .seed(epoch_seed(scenario.seed, e));
        if scenario.cores == 16 {
            exp = exp.system(sixteen_core_config());
        }
        if let Some(c) = &opts.cancel {
            exp = exp.cancel_token(c.clone());
        }
        let summary = exp.run()?;
        wp_obs::add(wp_obs::Counter::TenantEpochsRun, 1);

        for (slot, &i) in admitted.iter().enumerate() {
            let t = &scenario.tenants[i];
            let core = &summary.cores[slot];
            let acc = &mut accounts[i];
            acc.instructions += core.instructions;
            acc.cycles += core.cycles;
            let epoch_acc = core.llc_accesses + core.llc_bypasses;
            let epoch_miss = core.llc_misses + core.llc_bypasses;
            acc.accesses += epoch_acc;
            acc.misses += epoch_miss;
            acc.admitted += 1;
            push(&mut events, e, &t.name, TenantEventKind::Admit);
            if let Some(slo) = t.slo {
                let violated = match slo {
                    SloTarget::MaxMissRatio(bound) => {
                        let ratio = if epoch_acc == 0 {
                            0.0
                        } else {
                            epoch_miss as f64 / epoch_acc as f64
                        };
                        ratio > bound
                    }
                    SloTarget::MinNormIpc(bound) => {
                        let base = alone_ipc
                            .get(&(kind, t.app.clone()))
                            .copied()
                            .unwrap_or(0.0);
                        let nipc = if base > 0.0 { core.ipc() / base } else { 0.0 };
                        nipc < bound
                    }
                };
                if violated {
                    acc.violating += 1;
                    push(&mut events, e, &t.name, TenantEventKind::Violate);
                    wp_obs::add(wp_obs::Counter::TenantSloViolations, 1);
                }
            }
        }
    }

    let as_scenario_err = |e: MetricError| HarnessError::Scenario(e.to_string());
    let mut tenants = Vec::with_capacity(scenario.tenants.len());
    for (t, acc) in scenario.tenants.iter().zip(&accounts) {
        let base = alone_ipc
            .get(&(kind, t.app.clone()))
            .copied()
            .unwrap_or(0.0);
        let shared_ipc = if acc.cycles > 0.0 {
            acc.instructions as f64 / acc.cycles
        } else {
            0.0
        };
        let progress = if base > 0.0 { shared_ipc / base } else { 0.0 };
        tenants.push(TenantOutcome {
            name: t.name.clone(),
            app: t.app.clone(),
            weight: t.weight,
            alone_ipc: base,
            progress,
            instructions: acc.instructions,
            cycles: acc.cycles,
            miss_ratio: if acc.accesses == 0 {
                0.0
            } else {
                acc.misses as f64 / acc.accesses as f64
            },
            epochs_admitted: acc.admitted,
            epochs_waiting: acc.waiting,
            epochs_violating: acc.violating,
            has_slo: t.slo.is_some(),
        });
    }

    let progress: Vec<f64> = tenants.iter().map(|t| t.progress).collect();
    let weights: Vec<f64> = tenants.iter().map(|t| t.weight).collect();
    let ws = weighted_speedup(&progress, &weights).map_err(as_scenario_err)?;
    let jain = jain_index(&progress).map_err(as_scenario_err)?;
    let slo_tenants: Vec<&TenantOutcome> = tenants.iter().filter(|t| t.has_slo).collect();
    let slo_fraction = if slo_tenants.is_empty() {
        None
    } else {
        let viol: Vec<u64> = slo_tenants.iter().map(|t| t.epochs_violating).collect();
        let res: Vec<u64> = slo_tenants
            .iter()
            .map(|t| t.epochs_admitted + t.epochs_waiting)
            .collect();
        Some(slo_violation_fraction(&viol, &res).map_err(as_scenario_err)?)
    };

    Ok(SchemeOutcome {
        scheme: kind,
        tenants,
        weighted_speedup: ws,
        jain_fairness: jain,
        slo_violation_fraction: slo_fraction,
        events,
    })
}

impl ScenarioReport {
    /// One deterministic JSON line for the whole scenario. Excludes
    /// everything environmental (jobs, wall clock), so the line is
    /// bit-identical across `WP_JOBS` and the offline/daemon split — the determinism tests diff it verbatim.
    pub fn to_json(&self) -> String {
        let schemes: Vec<String> = self
            .schemes
            .iter()
            .map(|s| {
                let tenants: Vec<String> = s
                    .tenants
                    .iter()
                    .map(|t| {
                        format!(
                            "{{\"name\":{},\"app\":{},\"weight\":{},\"alone_ipc\":{},\"progress\":{},\"instructions\":{},\"miss_ratio\":{},\"epochs_admitted\":{},\"epochs_waiting\":{},\"epochs_violating\":{}}}",
                            quote(&t.name),
                            quote(&t.app),
                            fmt_f64(t.weight),
                            fmt_f64(t.alone_ipc),
                            fmt_f64(t.progress),
                            t.instructions,
                            fmt_f64(t.miss_ratio),
                            t.epochs_admitted,
                            t.epochs_waiting,
                            t.epochs_violating,
                        )
                    })
                    .collect();
                let slo = match s.slo_violation_fraction {
                    Some(f) => fmt_f64(f),
                    None => "null".to_string(),
                };
                format!(
                    "{{\"scheme\":{},\"weighted_speedup\":{},\"jain_fairness\":{},\"slo_violation_fraction\":{slo},\"tenants\":[{}]}}",
                    quote(s.scheme.label()),
                    fmt_f64(s.weighted_speedup),
                    fmt_f64(s.jain_fairness),
                    tenants.join(","),
                )
            })
            .collect();
        format!(
            "{{\"scenario\":{},\"seed\":{},\"cores\":{},\"epochs\":{},\"epoch_instrs\":{},\"schemes\":[{}]}}",
            quote(&self.name),
            self.seed,
            self.cores,
            self.epochs,
            self.epoch_instrs,
            schemes.join(","),
        )
    }

    /// The tenant timeline as JSONL: every scheme's events concatenated
    /// in request order, one [`TenantEvent`] per line. Deterministic for
    /// the same reasons as [`to_json`](Self::to_json).
    pub fn timeline_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.schemes {
            for e in &s.events {
                out.push_str(&e.to_json_line());
                out.push('\n');
            }
        }
        out
    }
}

/// Validates a tenant timeline produced by
/// [`ScenarioReport::timeline_jsonl`]: every line must be a JSON object
/// with `type:"tenant"`, a string scheme and tenant, a non-negative
/// integer epoch, and a known event name.
///
/// # Errors
///
/// A one-line description of the first offending line.
pub fn validate_timeline(text: &str) -> Result<usize, String> {
    let mut n = 0;
    for (lineno, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let bad = |what: &str| format!("timeline line {}: {what}", lineno + 1);
        let doc = whirlpool_repro::bench_check::parse(line)
            .map_err(|e| bad(&format!("not JSON ({e})")))?;
        if doc.get("type").and_then(|v| v.as_str()) != Some("tenant") {
            return Err(bad("missing \"type\":\"tenant\""));
        }
        if doc.get("scheme").and_then(|v| v.as_str()).is_none() {
            return Err(bad("missing string \"scheme\""));
        }
        if doc.get("tenant").and_then(|v| v.as_str()).is_none() {
            return Err(bad("missing string \"tenant\""));
        }
        match doc.get("epoch").and_then(|v| v.as_f64()) {
            Some(e) if e >= 0.0 && e.fract() == 0.0 => {}
            _ => return Err(bad("missing non-negative integer \"epoch\"")),
        }
        match doc.get("event").and_then(|v| v.as_str()) {
            Some("arrive" | "depart" | "admit" | "wait" | "violate") => {}
            Some(other) => return Err(bad(&format!("unknown event '{other}'"))),
            None => return Err(bad("missing string \"event\"")),
        }
        n += 1;
    }
    if n == 0 {
        return Err("timeline has no tenant events".into());
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(epochs: u64, cores: u64, tenants: &str) -> Scenario {
        Scenario::from_json_str(&format!(
            r#"{{"name":"tiny","seed":3,"cores":{cores},"epochs":{epochs},
                "epoch_instrs":1000,"warmup_instrs":100,"tenants":[{tenants}]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn schedule_is_fcfs_with_file_order_tiebreak() {
        // 4 cores, 5 resident tenants at epoch 2: the latest arrival waits.
        let s = tiny(
            4,
            4,
            r#"{"name":"t0","app":"mcf","arrival":0,"departure":4},
               {"name":"t1","app":"mcf","arrival":0,"departure":4},
               {"name":"t2","app":"mcf","arrival":1,"departure":4},
               {"name":"t3","app":"mcf","arrival":1,"departure":4},
               {"name":"t4","app":"mcf","arrival":2,"departure":4}"#,
        );
        let sched = build_schedule(&s);
        assert_eq!(sched.admitted[0], vec![0, 1]);
        assert_eq!(sched.admitted[2], vec![0, 1, 2, 3]);
        assert_eq!(sched.waiting[2], vec![4]);
        assert_eq!(sched.admitted[3], vec![0, 1, 2, 3]);
    }

    #[test]
    fn empty_epochs_are_skipped() {
        let s = tiny(
            3,
            4,
            r#"{"name":"t0","app":"mcf","arrival":2,"departure":3}"#,
        );
        let sched = build_schedule(&s);
        assert!(sched.admitted[0].is_empty() && sched.admitted[1].is_empty());
        assert_eq!(sched.admitted[2], vec![0]);
    }

    #[test]
    fn epoch_seed_varies_by_epoch_but_not_callsite() {
        assert_ne!(epoch_seed(7, 0), epoch_seed(7, 1));
        assert_eq!(epoch_seed(7, 3), epoch_seed(7, 3));
    }

    #[test]
    fn timeline_validator_accepts_real_lines_and_rejects_junk() {
        let good = "{\"type\":\"tenant\",\"scheme\":\"Jigsaw\",\"epoch\":0,\"tenant\":\"a\",\"event\":\"arrive\"}\n";
        assert_eq!(validate_timeline(good), Ok(1));
        assert!(validate_timeline("").is_err());
        assert!(validate_timeline("not json\n")
            .unwrap_err()
            .contains("line 1"));
        let wrong_event = good.replace("arrive", "explode");
        assert!(validate_timeline(&wrong_event)
            .unwrap_err()
            .contains("unknown event"));
        let wrong_type = good.replace("tenant\",", "pool_sample\",");
        assert!(validate_timeline(&wrong_type).is_err());
    }

    #[test]
    fn no_schemes_is_a_scenario_error() {
        let s = tiny(
            1,
            4,
            r#"{"name":"t0","app":"mcf","arrival":0,"departure":1}"#,
        );
        match run_scenario(&s, &[], &ScenarioOpts::default()) {
            Err(HarnessError::Scenario(m)) => assert!(m.contains("at least one scheme")),
            other => panic!("expected Scenario error, got {other:?}"),
        }
    }
}
