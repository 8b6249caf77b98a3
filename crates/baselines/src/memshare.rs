//! Memshare-style contention-aware capacity apportioning.
//!
//! Models the core idea of Memshare (Cidon et al.): the LLC is one
//! logically partitioned pool, and capacity *slabs* (our allocation
//! granules) are continually reassigned between tenants — here, one
//! tenant per core — by greedy marginal benefit. Each core carries a
//! sampled utility monitor (the same GMON substrate Whirlpool uses);
//! at every reconfiguration interval the allocator rebuilds the quota
//! vector from scratch, granting granules one at a time to whichever
//! tenant's miss curve promises the largest absolute miss reduction
//! for its next granule, weighted by the tenant's interval
//! instructions.
//!
//! Unlike Whirlpool it knows nothing about static pools or NUCA
//! placement — every access pays the distance to a hashed home bank,
//! like S-NUCA — so the comparison isolates the value of *capacity*
//! apportioning alone.

use wp_cache::{AccessOutcome, MonitorConfig, PartitionedCache, UtilityMonitor};
use wp_mrc::MissCurve;
use wp_noc::CoreId;
use wp_sim::{
    AccessContext, EventBatch, LlcOutcome, LlcResponse, LlcScheme, PoolDescriptor, SystemConfig,
    Uncore,
};

use crate::hashed_bank;

/// Per-core bookkeeping: cumulative demand plus the last blended curve.
#[derive(Debug, Default)]
struct TenantState {
    accesses: u64,
    misses: u64,
    curve: Option<MissCurve>,
    /// Interval instructions at the last rollover (the curve's weight).
    weight_instrs: u64,
}

/// The Memshare capacity-apportioning scheme: one partition per core,
/// greedy marginal-benefit slab reassignment at every interval.
pub struct MemshareScheme {
    parts: PartitionedCache,
    monitors: Vec<UtilityMonitor>,
    tenants: Vec<TenantState>,
    /// Current per-core allocation, in granules.
    quotas: Vec<usize>,
    granule_lines: u64,
    total_granules: usize,
    num_banks: u64,
    reconfigs: u64,
    log: Vec<wp_obs::ReconfigEvent>,
}

impl std::fmt::Debug for MemshareScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemshareScheme")
            .field("cores", &self.quotas.len())
            .field("total_granules", &self.total_granules)
            .finish()
    }
}

impl MemshareScheme {
    /// Builds the scheme for a system: the whole LLC as one partitioned
    /// cache, an equal-split initial allocation, and one sampled
    /// utility monitor per core sized to cover the full LLC.
    pub fn new(sys: &SystemConfig) -> Self {
        let cores = sys.floorplan.num_cores();
        let num_banks = sys.floorplan.num_banks() as u64;
        let total_lines = (num_banks * sys.lines_per_bank()) as usize;
        let total_granules = sys.total_granules();
        let mut parts = PartitionedCache::new(total_lines);
        let mut quotas = vec![0usize; cores];
        // Equal split until the first interval's curves arrive; the
        // remainder granules go to the lowest-numbered cores so the sum
        // always covers the whole LLC.
        for (i, q) in quotas.iter_mut().enumerate() {
            *q = total_granules / cores + usize::from(i < total_granules % cores);
            parts.set_quota(i as u32, *q * sys.granule_lines as usize);
        }
        let monitor_cfg = MonitorConfig {
            granule_lines: sys.granule_lines,
            curve_points: total_granules + 1,
            ..MonitorConfig::default()
        };
        Self {
            parts,
            monitors: (0..cores)
                .map(|_| UtilityMonitor::new(monitor_cfg))
                .collect(),
            tenants: (0..cores).map(|_| TenantState::default()).collect(),
            quotas,
            granule_lines: sys.granule_lines,
            total_granules,
            num_banks,
            reconfigs: 0,
            log: Vec::new(),
        }
    }

    /// Greedy from-zero reallocation with lookahead: repeatedly grant
    /// the slab run promising the best miss-reduction *rate* (absolute
    /// misses saved per granule, i.e. MPKI delta × interval
    /// kilo-instructions ÷ run length). Scanning every run length — the
    /// UCP "Lookahead" trick — is what sees past the flat plateau in
    /// front of a working-set cliff, where a one-granule greedy reads
    /// zero gain and stalls. Capacity beyond every curve's last cliff
    /// goes proportionally to the benefit each tenant demonstrated in
    /// the greedy pass — the reuse-heavy tenants keep the slack, while
    /// streamers and idle cores (zero demonstrated benefit) release it.
    fn apportion(&self) -> Vec<usize> {
        let cores = self.quotas.len();
        let mut next = vec![0usize; cores];
        let mut saved = vec![0.0f64; cores];
        // Best (gain rate, run length) for a tenant holding `have`
        // granules, looking ahead at most `cap` more.
        let best_run = |core: usize, have: usize, cap: usize| -> (f64, usize) {
            let Some(c) = &self.tenants[core].curve else {
                return (0.0, 0);
            };
            let kilo = self.tenants[core].weight_instrs as f64 / 1000.0;
            let base = c.mpki_at(have);
            let mut best = (0.0f64, 0usize);
            for d in 1..=cap {
                let rate = (base - c.mpki_at(have + d)).max(0.0) * kilo / d as f64;
                if rate > best.0 {
                    best = (rate, d);
                }
            }
            best
        };
        let mut remaining = self.total_granules;
        while remaining > 0 {
            let mut winner: Option<(f64, usize, usize)> = None;
            for (i, &have) in next.iter().enumerate() {
                let (rate, run) = best_run(i, have, remaining);
                if rate > winner.map_or(0.0, |w| w.0) {
                    winner = Some((rate, i, run));
                }
            }
            let Some((rate, i, run)) = winner else { break };
            next[i] += run;
            remaining -= run;
            saved[i] += rate * run as f64;
        }
        // Leftover capacity sits past every curve's last cliff: park it
        // with the tenants that demonstrated reuse, proportionally to
        // the misses the greedy pass saved them (largest-remainder
        // rounding, ties to the lowest core). With no demonstrated
        // benefit anywhere (cold start), spread evenly instead.
        if remaining > 0 {
            let total_saved: f64 = saved.iter().sum();
            if total_saved > 0.0 {
                let mut shares: Vec<(usize, f64)> = (0..cores)
                    .map(|i| {
                        let exact = remaining as f64 * saved[i] / total_saved;
                        let floor = exact.floor() as usize;
                        next[i] += floor;
                        remaining -= floor;
                        (i, exact - floor as f64)
                    })
                    .collect();
                shares.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
                for (i, _) in shares.into_iter().cycle().take(remaining) {
                    next[i] += 1;
                }
            } else {
                for k in 0..remaining {
                    next[k % cores] += 1;
                }
            }
        }
        next
    }
}

impl LlcScheme for MemshareScheme {
    fn name(&self) -> String {
        "Memshare".into()
    }

    fn attach_core(&mut self, _core: CoreId, _pools: &[PoolDescriptor]) {}

    fn access(&mut self, ctx: AccessContext, uncore: &mut Uncore) -> LlcResponse {
        let core_idx = ctx.core.0 as usize;
        let bank = hashed_bank(ctx.line, self.num_banks);
        self.monitors[core_idx].record(ctx.line.0);
        self.tenants[core_idx].accesses += 1;
        match self.parts.access(core_idx as u32, ctx.line.0) {
            AccessOutcome::Hit => LlcResponse {
                latency: uncore.bank_hit(ctx.core, bank),
                outcome: LlcOutcome::Hit,
            },
            AccessOutcome::Miss { .. } => {
                self.tenants[core_idx].misses += 1;
                uncore.charge_bank_insert();
                LlcResponse {
                    latency: uncore.bank_miss_to_memory(ctx.core, bank, ctx.line),
                    outcome: LlcOutcome::Miss,
                }
            }
        }
    }

    /// The monitor's stack slot (sampled lines only) and the partition's
    /// index slot that serving event `i` probes first.
    fn prefetch(&self, core: CoreId, batch: &EventBatch, i: usize) {
        let line = batch.lines[i].0;
        self.monitors[usize::from(core.0)].prefetch(line);
        self.parts.prefetch(u32::from(core.0), line);
    }

    fn reconfigure(&mut self, uncore: &mut Uncore) {
        // Roll every monitor over first so each tenant's curve reflects
        // the whole interval, then reapportion from the fresh curves.
        for (i, mon) in self.monitors.iter_mut().enumerate() {
            let instrs = uncore.interval_instructions[i];
            let curve = mon.rollover(instrs);
            self.tenants[i].weight_instrs = instrs;
            self.tenants[i].curve = Some(curve);
        }
        let next = self.apportion();
        self.reconfigs += 1;
        let pools = next
            .iter()
            .enumerate()
            .map(|(i, &g)| wp_obs::PoolChange {
                pool: format!("tenant:core{i}"),
                old_granules: Some(self.quotas[i]),
                new_granules: g,
                bypassed: g == 0,
                apki: self.tenants[i]
                    .curve
                    .as_ref()
                    .map_or(0.0, MissCurve::at_zero),
            })
            .collect();
        self.log.push(wp_obs::ReconfigEvent {
            cycle: uncore.now,
            index: self.reconfigs,
            pools,
        });
        // Shrink before growing so the partitioned cache's capacity
        // invariant (assigned <= total) holds at every step.
        for (i, (&new, old)) in next.iter().zip(self.quotas.clone()).enumerate() {
            if new < old {
                self.parts
                    .set_quota(i as u32, new * self.granule_lines as usize);
            }
        }
        for (i, &new) in next.iter().enumerate() {
            if new >= self.quotas[i] {
                self.parts
                    .set_quota(i as u32, new * self.granule_lines as usize);
            }
        }
        self.quotas = next;
    }

    fn bank_occupancy(&self) -> Vec<(usize, String, f64)> {
        Vec::new()
    }

    fn pool_occupancy(&self) -> Vec<wp_obs::PoolOcc> {
        self.quotas
            .iter()
            .enumerate()
            .map(|(i, &g)| wp_obs::PoolOcc {
                pool: format!("tenant:core{i}"),
                granules: g,
                bypassed: g == 0,
                accesses: self.tenants[i].accesses,
                misses: self.tenants[i].misses,
            })
            .collect()
    }

    fn reconfig_log(&self) -> Vec<wp_obs::ReconfigEvent> {
        self.log.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wp_mem::LineAddr;

    fn sys() -> SystemConfig {
        SystemConfig::four_core()
    }

    fn ctx(core: u16, line: u64) -> AccessContext {
        AccessContext {
            core: CoreId(core),
            line: LineAddr(line),
            is_write: false,
        }
    }

    /// Drives `n` accesses per core: core 0 loops a reusable working
    /// set, core 1 streams (no reuse).
    fn drive(s: &mut MemshareScheme, u: &mut Uncore, n: u64, stream_base: &mut u64) {
        for k in 0..n {
            s.access(ctx(0, k % 4096), u);
            u.interval_instructions[0] += 10;
            s.access(ctx(1, *stream_base), u);
            *stream_base += 1;
            u.interval_instructions[1] += 10;
        }
    }

    #[test]
    fn quotas_cover_the_whole_llc() {
        let config = sys();
        let s = MemshareScheme::new(&config);
        assert_eq!(s.quotas.iter().sum::<usize>(), config.total_granules());
    }

    #[test]
    fn hungry_core_takes_capacity_from_a_streaming_one() {
        let config = sys();
        let mut s = MemshareScheme::new(&config);
        let mut u = Uncore::new(config);
        let mut stream = 1 << 40;
        for _ in 0..3 {
            drive(&mut s, &mut u, 60_000, &mut stream);
            s.reconfigure(&mut u);
            for n in &mut u.interval_instructions {
                *n = 0;
            }
        }
        assert!(
            s.quotas[0] > 2 * s.quotas[1].max(1),
            "reuse-heavy core 0 should out-earn streaming core 1: {:?}",
            s.quotas
        );
        let sum: usize = s.quotas.iter().sum();
        assert_eq!(sum, s.total_granules, "reallocation must conserve capacity");
    }

    #[test]
    fn reallocation_is_deterministic_and_logged() {
        let config = sys();
        let run = || {
            let mut s = MemshareScheme::new(&config);
            let mut u = Uncore::new(config.clone());
            let mut stream = 1 << 40;
            drive(&mut s, &mut u, 30_000, &mut stream);
            s.reconfigure(&mut u);
            (s.quotas.clone(), s.reconfig_log())
        };
        let (q1, log1) = run();
        let (q2, log2) = run();
        assert_eq!(q1, q2);
        assert_eq!(log1, log2);
        assert_eq!(log1.len(), 1);
        assert_eq!(log1[0].pools.len(), 4);
    }

    #[test]
    fn idle_cores_eventually_release_capacity() {
        let config = sys();
        let mut s = MemshareScheme::new(&config);
        let mut u = Uncore::new(config);
        // Core 0 active with reuse; cores 1-3 idle throughout.
        for _ in 0..4 {
            for k in 0..40_000u64 {
                s.access(ctx(0, k % 4096), &mut u);
                u.interval_instructions[0] += 10;
            }
            s.reconfigure(&mut u);
            for n in &mut u.interval_instructions {
                *n = 0;
            }
        }
        assert!(
            s.quotas[0] >= s.total_granules / 2,
            "active core should hold most of the LLC: {:?}",
            s.quotas
        );
    }
}
