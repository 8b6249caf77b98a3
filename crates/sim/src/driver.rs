//! The simulation driver: interleaves per-core workloads over a shared
//! uncore and a pluggable LLC scheme.
//!
//! Multi-program runs follow the paper's fixed-work methodology
//! (Appendix A): all workloads run until every one of them has retired its
//! instruction target; statistics only count each workload's first `N`
//! instructions, but finished workloads keep executing (wrapping their
//! traces) so late finishers still see contention.

use std::path::PathBuf;

use wp_noc::CoreId;
use wp_trace::{EventBatch, TraceError, TraceWriter};

use crate::config::SystemConfig;
use crate::scheme::{BatchClock, LlcOutcome, LlcResponse, LlcScheme, Workload, WorkloadBundle};
use crate::stats::CoreStats;
use crate::uncore::Uncore;
use crate::EnergyBreakdown;

/// Events processed per scheduling quantum (per core, before the driver
/// re-picks the laggard core).
const QUANTUM_EVENTS: usize = 256;

/// Run-level configuration: the simulated system plus driver options that
/// are not part of the modelled hardware.
///
/// The only such option today is trace capture: with `capture_to` set,
/// every event the driver pulls from every attached workload — warmup
/// included — is recorded to a `.wpt` file (one stream per core, with the
/// core's pool descriptors in the stream header), so the run can later be
/// replayed bit-identically through any scheme via
/// [`TraceWorkload`](crate::TraceWorkload).
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The simulated system (Table 3 parameters, floorplan, energy).
    pub system: SystemConfig,
    /// Record every pulled event to this `.wpt` file.
    pub capture_to: Option<PathBuf>,
    /// Observability probes: with this set, the driver samples every
    /// pool's occupancy and demand each
    /// [`sample_every`](wp_obs::ObsConfig::sample_every) events (read
    /// back via [`MultiCoreSim::take_timeline`]). Sampling is read-only —
    /// results stay bit-identical with or without it.
    pub obs: Option<wp_obs::ObsConfig>,
}

impl SimConfig {
    /// A plain run of `system` with no capture and no probes.
    pub fn new(system: SystemConfig) -> Self {
        Self {
            system,
            capture_to: None,
            obs: None,
        }
    }

    /// Captures the run's full event stream to `path`.
    #[must_use]
    pub fn capture_to(mut self, path: impl Into<PathBuf>) -> Self {
        self.capture_to = Some(path.into());
        self
    }

    /// Enables the pool-occupancy timeline probe.
    #[must_use]
    pub fn observe(mut self, obs: wp_obs::ObsConfig) -> Self {
        self.obs = Some(obs);
        self
    }
}

impl From<SystemConfig> for SimConfig {
    fn from(system: SystemConfig) -> Self {
        Self::new(system)
    }
}

/// Capture state: the open writer plus each core's stream id.
struct Capture {
    writer: TraceWriter<std::io::BufWriter<std::fs::File>>,
    streams: Vec<Option<u16>>,
    /// First write error, surfaced by [`MultiCoreSim::finish_capture`];
    /// recording stops once set so one bad disk doesn't spam.
    error: Option<TraceError>,
}

impl Capture {
    fn record(&mut self, core: usize, ev: &crate::scheme::TraceEvent) {
        if self.error.is_some() {
            return;
        }
        let Some(stream) = self.streams[core] else {
            return;
        };
        if let Err(e) = self
            .writer
            .record(stream, ev.gap_instrs, ev.line, ev.is_write)
        {
            self.error = Some(e);
        }
    }
}

/// One core's execution state.
pub struct CoreRunner {
    trace: Box<dyn Workload>,
    stats: CoreStats,
    /// Measurement baseline (snapshot at the end of warmup).
    baseline: CoreStats,
    /// Stats frozen at the fixed-work boundary (delta vs baseline).
    counted: Option<CoreStats>,
    active: bool,
}

impl std::fmt::Debug for CoreRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoreRunner")
            .field("active", &self.active)
            .field("instructions", &self.stats.instructions)
            .finish()
    }
}

/// Result of a simulation run.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Scheme name.
    pub scheme: String,
    /// Per-core statistics (fixed-work window for multi-program runs).
    pub cores: Vec<CoreStats>,
    /// Uncore energy over the whole run.
    pub energy: EnergyBreakdown,
    /// Final global time in cycles.
    pub cycles: u64,
}

impl RunSummary {
    /// Sum of per-core instruction counts.
    pub fn total_instructions(&self) -> u64 {
        self.cores.iter().map(|c| c.instructions).sum()
    }

    /// Uncore energy per kilo-instruction (nJ/KI) — the normalized
    /// data-movement energy the paper's bar charts compare.
    pub fn energy_per_ki(&self) -> f64 {
        let ki = self.total_instructions() as f64 / 1000.0;
        if ki == 0.0 {
            0.0
        } else {
            self.energy.total_nj() / ki
        }
    }
}

/// The pool-occupancy sampling probe (active only with
/// [`SimConfig::observe`]).
struct TimelineProbe {
    /// Sample once per this many processed events.
    sample_every: u64,
    /// Event count at (or past) which the next sample fires.
    next_at: u64,
    samples: Vec<wp_obs::PoolSample>,
}

/// The multicore simulator: cores + uncore + one LLC scheme.
pub struct MultiCoreSim<S: LlcScheme> {
    uncore: Uncore,
    scheme: S,
    runners: Vec<Option<CoreRunner>>,
    last_reconfig: u64,
    capture: Option<Capture>,
    obs: Option<TimelineProbe>,
    /// Quantum scratch, reused across quanta so the steady state
    /// allocates nothing.
    batch: EventBatch,
    responses: Vec<LlcResponse>,
}

impl<S: LlcScheme> std::fmt::Debug for MultiCoreSim<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiCoreSim")
            .field("scheme", &self.scheme.name())
            .finish()
    }
}

impl<S: LlcScheme> MultiCoreSim<S> {
    /// Creates a simulator for `config` managed by `scheme`.
    pub fn new(config: SystemConfig, scheme: S) -> Self {
        let cores = config.floorplan.num_cores();
        Self {
            uncore: Uncore::new(config),
            scheme,
            runners: (0..cores).map(|_| None).collect(),
            last_reconfig: 0,
            capture: None,
            obs: None,
            batch: EventBatch::with_capacity(QUANTUM_EVENTS),
            responses: Vec::with_capacity(QUANTUM_EVENTS),
        }
    }

    /// Creates a simulator from a full [`SimConfig`], opening the capture
    /// file if one is configured. Errors only on capture-file creation.
    pub fn with_config(config: SimConfig, scheme: S) -> Result<Self, TraceError> {
        let mut sim = Self::new(config.system, scheme);
        if let Some(obs) = &config.obs {
            let every = obs.sample_every.max(1);
            sim.obs = Some(TimelineProbe {
                sample_every: every,
                next_at: every,
                samples: Vec::new(),
            });
        }
        if let Some(path) = &config.capture_to {
            let cores = sim.runners.len();
            sim.capture = Some(Capture {
                writer: TraceWriter::create(path)?,
                streams: vec![None; cores],
                error: None,
            });
        }
        Ok(sim)
    }

    /// Finalizes the capture file (flushes chunks, writes the `End`
    /// block) and surfaces any write error hit mid-run. Returns `true`
    /// if a capture was active. Without this the file lacks its `End`
    /// block and readers report it truncated (`Drop` still makes a
    /// best-effort attempt).
    pub fn finish_capture(&mut self) -> Result<bool, TraceError> {
        let Some(mut cap) = self.capture.take() else {
            return Ok(false);
        };
        if let Some(e) = cap.error.take() {
            return Err(e);
        }
        cap.writer.finish()?;
        Ok(true)
    }

    /// Attaches a workload to a core, registering its pools with the scheme.
    ///
    /// # Panics
    ///
    /// Panics if the core id is out of range or already occupied.
    pub fn attach(&mut self, core: CoreId, bundle: WorkloadBundle) {
        let slot = &mut self.runners[core.0 as usize];
        assert!(slot.is_none(), "core {core:?} already has a workload");
        self.scheme.attach_core(core, &bundle.pools);
        if let Some(cap) = &mut self.capture {
            let pools = crate::replay::pool_metas_of(&bundle.pools);
            match cap.writer.add_stream(&bundle.name, &pools) {
                Ok(id) => cap.streams[core.0 as usize] = Some(id),
                Err(e) => cap.error = Some(e),
            }
        }
        let slot = &mut self.runners[core.0 as usize];
        *slot = Some(CoreRunner {
            trace: bundle.trace,
            stats: CoreStats::default(),
            baseline: CoreStats::default(),
            counted: None,
            active: true,
        });
    }

    /// Immutable access to the scheme (for occupancy maps etc.).
    pub fn scheme(&self) -> &S {
        &self.scheme
    }

    /// Mutable access to the scheme (for tests and phase injection).
    pub fn scheme_mut(&mut self) -> &mut S {
        &mut self.scheme
    }

    /// Consumes the simulator, returning the scheme with its end-of-run
    /// state — occupancy maps, reconfiguration histories — for post-run
    /// introspection. Call [`finish_capture`](Self::finish_capture)
    /// first if a capture is active.
    pub fn into_scheme(self) -> S {
        self.scheme
    }

    /// The uncore (energy, time).
    pub fn uncore(&self) -> &Uncore {
        &self.uncore
    }

    /// Runs `warmup_instructions` per core without counting (the paper's
    /// fast-forward: caches and monitors warm, statistics reset), then
    /// measures `target_instructions` per core.
    ///
    /// A *finite* workload (e.g. a replayed trace) that runs dry during
    /// warmup keeps its warmup-window statistics as its counted result —
    /// it executed, just not past the fast-forward boundary. When
    /// replaying a capture, use warmup/measure budgets no larger than the
    /// recording's so the measurement window lands inside the trace.
    pub fn run_with_warmup(
        &mut self,
        warmup_instructions: u64,
        target_instructions: u64,
    ) -> RunSummary {
        if warmup_instructions > 0 {
            let _span = wp_obs::span(wp_obs::Phase::Warmup);
            self.run(warmup_instructions);
            for r in self.runners.iter_mut().flatten() {
                if r.active {
                    r.baseline = r.stats;
                    r.counted = None;
                }
            }
            self.uncore.reset_energy();
        }
        let _span = wp_obs::span(wp_obs::Phase::Measure);
        self.run(target_instructions)
    }

    /// Runs every attached workload for `target_instructions` (fixed-work).
    /// Returns the per-core summaries.
    pub fn run(&mut self, target_instructions: u64) -> RunSummary {
        loop {
            // Pick the attached, active core with the smallest cycle count
            // that has not yet been counted out — the laggard.
            let mut pick: Option<usize> = None;
            for (i, r) in self.runners.iter().enumerate() {
                if let Some(r) = r {
                    if r.active && r.counted.is_none() {
                        let better = match pick {
                            None => true,
                            Some(j) => {
                                let rj = self.runners[j].as_ref().expect("picked exists");
                                r.stats.cycles < rj.stats.cycles
                            }
                        };
                        if better {
                            pick = Some(i);
                        }
                    }
                }
            }
            let Some(core_idx) = pick else { break };
            self.step_core(core_idx, target_instructions);
            // Fixed-work: cores past their target keep running (their
            // stats are frozen) so laggards still see contention.
            let laggard_cycles = self.runners[core_idx]
                .as_ref()
                .map(|r| r.stats.cycles)
                .unwrap_or(0.0);
            for i in 0..self.runners.len() {
                if i == core_idx {
                    continue;
                }
                let needs_catchup = self.runners[i].as_ref().is_some_and(|r| {
                    r.active && r.counted.is_some() && r.stats.cycles < laggard_cycles
                });
                if needs_catchup {
                    self.step_core(i, target_instructions);
                }
            }
            self.maybe_reconfigure();
            if self.obs.is_some() {
                self.maybe_sample();
            }
        }
        self.summary()
    }

    /// Takes a pool-occupancy sample when the processed-event count has
    /// crossed the probe's next threshold. Pure observation: it reads
    /// scheme state and per-core counters, mutating nothing the
    /// simulation depends on.
    fn maybe_sample(&mut self) {
        let events: u64 = self
            .runners
            .iter()
            .flatten()
            .map(|r| r.stats.llc_accesses + r.stats.llc_bypasses)
            .sum();
        {
            let probe = self.obs.as_ref().expect("probe checked by caller");
            if events < probe.next_at {
                return;
            }
        }
        let cycle = self.global_cycle();
        let probe = self.obs.as_mut().expect("probe exists");
        // One sample per crossing, however many thresholds a quantum
        // jumped (a quantum is 256 events; sample_every is usually much
        // larger).
        probe.next_at = events - (events % probe.sample_every) + probe.sample_every;
        let occs = self.scheme.pool_occupancy();
        wp_obs::add(wp_obs::Counter::PoolSamplesTaken, occs.len() as u64);
        let probe = self.obs.as_mut().expect("probe exists");
        for occ in occs {
            probe.samples.push(wp_obs::PoolSample {
                cycle,
                event: events,
                occ,
            });
        }
    }

    /// Global time: the laggard's clock (monotone, never outruns work).
    fn global_cycle(&self) -> u64 {
        self.runners
            .iter()
            .flatten()
            .filter(|r| r.active && r.counted.is_none())
            .map(|r| r.stats.cycles as u64)
            .min()
            .unwrap_or(self.uncore.now)
    }

    /// Drains the pool-occupancy timeline collected so far (empty unless
    /// the simulator was built with [`SimConfig::observe`]).
    pub fn take_timeline(&mut self) -> Vec<wp_obs::PoolSample> {
        self.obs
            .as_mut()
            .map(|p| std::mem::take(&mut p.samples))
            .unwrap_or_default()
    }

    /// Runs one quantum of core `core_idx`: the workload fills a
    /// quantum-sized [`EventBatch`] (teed to the capture in pull order),
    /// the scheme serves it under the per-event clock protocol of
    /// [`BatchClock`], and the stats fold below repeats the identical f64
    /// sequence per event.
    fn step_core(&mut self, core_idx: usize, target: u64) {
        let core = CoreId(core_idx as u16);
        let (base_cpi, mlp) = (self.uncore.config().base_cpi, self.uncore.config().mlp);
        let mut batch = std::mem::take(&mut self.batch);
        let mut responses = std::mem::take(&mut self.responses);
        batch.clear();
        responses.clear();

        let runner = self.runners[core_idx].as_mut().expect("runner exists");
        let n = runner.trace.fill_batch(&mut batch, QUANTUM_EVENTS);
        debug_assert_eq!(n, batch.len());
        if let Some(cap) = &mut self.capture {
            for i in 0..n {
                cap.record(
                    core_idx,
                    &crate::scheme::TraceEvent {
                        gap_instrs: batch.gaps[i],
                        line: batch.lines[i],
                        is_write: batch.writes[i],
                    },
                );
            }
        }

        let runner = self.runners[core_idx].as_mut().expect("runner exists");
        let mut clock = BatchClock::new(runner.stats.cycles, base_cpi, mlp, core_idx);
        self.scheme
            .access_batch(core, &batch, &mut clock, &mut self.uncore, &mut responses);
        debug_assert_eq!(responses.len(), n, "one response per event");

        let runner = self.runners[core_idx].as_mut().expect("runner exists");
        for (i, resp) in responses.iter().enumerate() {
            runner.stats.instructions += batch.gaps[i] as u64;
            runner.stats.cycles += batch.gaps[i] as f64 * base_cpi;
            let stall = resp.latency / mlp;
            runner.stats.cycles += stall;
            runner.stats.stall_cycles += stall;
            runner.stats.llc_accesses += 1;
            match resp.outcome {
                LlcOutcome::Hit => runner.stats.llc_hits += 1,
                LlcOutcome::Miss => runner.stats.llc_misses += 1,
                LlcOutcome::Bypass => {
                    runner.stats.llc_bypasses += 1;
                    // A bypass never performed an LLC access.
                    runner.stats.llc_accesses -= 1;
                }
            }
            let measured = runner.stats.instructions - runner.baseline.instructions;
            if runner.counted.is_none() && measured >= target {
                runner.counted = Some(runner.stats.delta(&runner.baseline));
            }
        }
        debug_assert_eq!(
            runner.stats.cycles.to_bits(),
            clock.cycles.to_bits(),
            "stats fold must replay the batch clock exactly"
        );
        // A short fill means the workload has finished.
        if n < QUANTUM_EVENTS {
            runner.active = false;
            if runner.counted.is_none() {
                runner.counted = Some(runner.stats.delta(&runner.baseline));
            }
        }

        self.batch = batch;
        self.responses = responses;
    }

    fn maybe_reconfigure(&mut self) {
        let interval = self.uncore.config().reconfig_interval_cycles;
        let global = self.global_cycle();
        if global >= self.last_reconfig + interval {
            self.last_reconfig = global;
            self.uncore.now = self.uncore.now.max(global);
            self.scheme.reconfigure(&mut self.uncore);
            wp_obs::add(wp_obs::Counter::Reconfigurations, 1);
            for n in &mut self.uncore.interval_instructions {
                *n = 0;
            }
        }
    }

    fn summary(&self) -> RunSummary {
        let cores = self
            .runners
            .iter()
            .map(|r| match r {
                Some(r) => r.counted.unwrap_or_else(|| r.stats.delta(&r.baseline)),
                None => CoreStats::default(),
            })
            .collect();
        RunSummary {
            scheme: self.scheme.name(),
            cores,
            energy: self.uncore.energy(),
            cycles: self.uncore.now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{AccessContext, LlcResponse, PoolDescriptor, TraceEvent};
    use wp_mem::LineAddr;

    /// A trivial scheme: everything hits in the core's nearest bank.
    #[derive(Debug, Default)]
    struct NearestHit {
        reconfigs: usize,
    }

    impl LlcScheme for NearestHit {
        fn name(&self) -> String {
            "nearest-hit".into()
        }

        fn attach_core(&mut self, _core: CoreId, _pools: &[PoolDescriptor]) {}

        fn access(&mut self, ctx: AccessContext, uncore: &mut Uncore) -> LlcResponse {
            let bank = uncore.plan().banks_by_distance(ctx.core)[0];
            let latency = uncore.bank_hit(ctx.core, bank);
            LlcResponse {
                latency,
                outcome: LlcOutcome::Hit,
            }
        }

        fn reconfigure(&mut self, _uncore: &mut Uncore) {
            self.reconfigs += 1;
        }
    }

    fn stream(n: u64) -> WorkloadBundle {
        let mut i = 0u64;
        WorkloadBundle {
            trace: Box::new(move || {
                if i < n {
                    i += 1;
                    Some(TraceEvent {
                        gap_instrs: 100,
                        line: LineAddr(i),
                        is_write: false,
                    })
                } else {
                    None
                }
            }),
            pools: vec![],
            name: "stream".into(),
        }
    }

    #[test]
    fn single_core_run_counts_instructions() {
        let mut sim = MultiCoreSim::new(SystemConfig::four_core(), NearestHit::default());
        sim.attach(CoreId(0), stream(1000));
        let out = sim.run(50_000);
        assert_eq!(out.cores[0].instructions, 50_000);
        assert_eq!(out.cores[0].llc_accesses, 500);
        assert_eq!(out.cores[0].llc_hits, 500);
        assert!(out.cores[0].cycles > 50_000.0); // base CPI + stalls
        assert!(out.energy.bank_nj > 0.0);
    }

    #[test]
    fn fixed_work_freezes_stats_at_target() {
        let mut sim = MultiCoreSim::new(SystemConfig::four_core(), NearestHit::default());
        sim.attach(CoreId(0), stream(10_000));
        let out = sim.run(10_000);
        // Target 10k instructions = 100 events.
        assert_eq!(out.cores[0].instructions, 10_000);
        assert_eq!(out.cores[0].llc_accesses, 100);
    }

    #[test]
    fn multicore_runs_all_cores() {
        let mut sim = MultiCoreSim::new(SystemConfig::four_core(), NearestHit::default());
        for c in 0..4 {
            sim.attach(CoreId(c), stream(1000));
        }
        let out = sim.run(20_000);
        for c in 0..4 {
            assert_eq!(out.cores[c].instructions, 20_000);
        }
    }

    #[test]
    fn reconfigure_fires_periodically() {
        let mut config = SystemConfig::four_core();
        config.reconfig_interval_cycles = 10_000;
        let mut sim = MultiCoreSim::new(config, NearestHit::default());
        sim.attach(CoreId(0), stream(100_000));
        sim.run(1_000_000);
        assert!(
            sim.scheme().reconfigs >= 5,
            "expected several reconfigs, got {}",
            sim.scheme().reconfigs
        );
    }

    #[test]
    fn exhausted_trace_stops_cleanly() {
        let mut sim = MultiCoreSim::new(SystemConfig::four_core(), NearestHit::default());
        sim.attach(CoreId(0), stream(10));
        let out = sim.run(1_000_000_000);
        assert_eq!(out.cores[0].instructions, 1000);
    }

    #[test]
    #[should_panic(expected = "already has a workload")]
    fn double_attach_panics() {
        let mut sim = MultiCoreSim::new(SystemConfig::four_core(), NearestHit::default());
        sim.attach(CoreId(0), stream(1));
        sim.attach(CoreId(0), stream(1));
    }

    #[test]
    fn capture_records_every_pulled_event() {
        let path =
            std::env::temp_dir().join(format!("wp-sim-capture-{}-driver.wpt", std::process::id()));
        let cfg = SimConfig::new(SystemConfig::four_core()).capture_to(&path);
        let mut sim = MultiCoreSim::with_config(cfg, NearestHit::default()).unwrap();
        sim.attach(CoreId(0), stream(1000));
        let out = sim.run(50_000);
        assert!(sim.finish_capture().unwrap());
        assert!(!sim.finish_capture().unwrap(), "second finish is a no-op");
        // The capture holds exactly what the run pulled: the counted 500
        // events plus the tail of the final scheduling quantum (the
        // driver finishes a quantum after the fixed-work target, so a
        // replay re-walks the identical stream).
        let mut replay = crate::TraceWorkload::open(&path).unwrap();
        let mut events = 0u64;
        while let Some(ev) = replay.next_event() {
            events += 1;
            assert_eq!(ev.gap_instrs, 100);
            assert!(!ev.is_write);
        }
        let counted = out.cores[0].llc_accesses;
        assert!(
            events >= counted && events <= counted + QUANTUM_EVENTS as u64,
            "captured {events}, counted {counted}"
        );
        assert_eq!(events % QUANTUM_EVENTS as u64, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn energy_per_ki_normalizes() {
        let mut sim = MultiCoreSim::new(SystemConfig::four_core(), NearestHit::default());
        sim.attach(CoreId(0), stream(1000));
        let out = sim.run(100_000);
        assert!(out.energy_per_ki() > 0.0);
    }
}
