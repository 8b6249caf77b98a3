//! The NUCA management runtime: VC bookkeeping, page classification, the
//! access path, and the periodic reconfiguration loop.
//!
//! [`NucaRuntime`] is the engine shared by Jigsaw and Whirlpool. With
//! [`NucaConfig::per_pool_vcs`] off it is Jigsaw: one thread-private VC per
//! core plus a process VC, with lazy page upgrades. With it on, pools from
//! the workload's static classification get their own VCs — which is all
//! Whirlpool changes (Sec. 3.2): sizing, placement, and reconfiguration are
//! byte-for-byte the same code.

use std::collections::HashMap;
use wp_mrc::FastMap;

use wp_cache::{MonitorConfig, PartitionedCache};
use wp_mem::{LineAddr, PageId, VcId};
use wp_noc::CoreId;
use wp_sim::{
    AccessContext, EventBatch, LlcOutcome, LlcResponse, LlcScheme, PoolDescriptor, SystemConfig,
    Uncore,
};

use crate::placement::{place_and_trade, PlacementInput};
use crate::sizing::{size_vcs, SizingInput};
use crate::vc::{VcKind, VcState};
use crate::vtb::Vtb;

/// Configuration of the NUCA runtime.
#[derive(Debug, Clone)]
pub struct NucaConfig {
    /// Create a VC per workload pool (Whirlpool) instead of mapping all of
    /// a thread's data to its thread VC (Jigsaw).
    pub per_pool_vcs: bool,
    /// Allow single-accessor VCs to be bypassed (the Sec. 3.2 extension;
    /// both Jigsaw and Whirlpool are evaluated with it in the paper).
    pub bypass_enabled: bool,
    /// Per-VC monitor configuration.
    pub monitor: MonitorConfig,
    /// Extra VTB entries per core for user pools (the paper provisions 4;
    /// pools beyond this fall back to the thread VC).
    pub max_pools_per_core: usize,
}

impl NucaConfig {
    /// Builds a config matched to `sys` (curve resolution = total granules).
    pub fn for_system(sys: &SystemConfig, per_pool_vcs: bool, bypass_enabled: bool) -> Self {
        Self {
            per_pool_vcs,
            bypass_enabled,
            monitor: MonitorConfig {
                sample_rate_log2: 2,
                granule_lines: sys.granule_lines,
                curve_points: sys.total_granules() + 1,
                ewma_alpha: 0.65,
            },
            max_pools_per_core: 4,
        }
    }
}

/// One reconfiguration's per-VC allocation rows:
/// `(label, granules, bypassed)` for every live VC (Fig. 11a).
pub type VcAllocations = Vec<(String, usize, bool)>;

/// The shared Jigsaw/Whirlpool runtime. Implements [`LlcScheme`], as
/// Jigsaw or as Whirlpool depending on [`NucaConfig::per_pool_vcs`]; the
/// paper's bypass ablations turn [`NucaConfig::bypass_enabled`] off.
pub struct NucaRuntime {
    sys: SystemConfig,
    config: NucaConfig,
    label: String,
    vcs: Vec<VcState>,
    /// Page → (VC index, first toucher): the TLB tag store plus the
    /// owner the lazy upgrade rule compares against.
    pages: FastMap<PageId, (u32, CoreId)>,
    /// One partitioned store per bank; partition key = VC index.
    banks: Vec<PartitionedCache>,
    /// Thread VC index per core (created at attach).
    thread_vc: Vec<Option<u32>>,
    /// The process VC index.
    process_vc: u32,
    /// Pool VCs created per core (bounded by `max_pools_per_core`).
    pools_per_core: Vec<usize>,
    bootstrapped: bool,
    reconfigurations: u64,
    /// One event per reconfiguration with old→new allocations and the
    /// curve signal that drove each sizing decision — the allocation
    /// trace of Fig. 11a (exported through [`LlcScheme::reconfig_log`]).
    obs_log: Vec<wp_obs::ReconfigEvent>,
    /// The current quantum's VC indices, filled by
    /// [`LlcScheme::prepare`]; reused so batched runs allocate nothing in
    /// steady state.
    vc_scratch: Vec<u32>,
}

impl std::fmt::Debug for NucaRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NucaRuntime")
            .field("label", &self.label)
            .field("vcs", &self.vcs.len())
            .field("reconfigurations", &self.reconfigurations)
            .finish()
    }
}

impl NucaRuntime {
    /// Creates the runtime for a system. `label` is the scheme name used in
    /// reports ("Jigsaw", "Whirlpool", …).
    pub fn new(sys: SystemConfig, config: NucaConfig, label: impl Into<String>) -> Self {
        let num_banks = sys.floorplan.num_banks();
        let lines_per_bank = sys.lines_per_bank() as usize;
        let num_cores = sys.floorplan.num_cores();
        let mut rt = Self {
            label: label.into(),
            banks: (0..num_banks)
                .map(|_| PartitionedCache::new(lines_per_bank))
                .collect(),
            vcs: Vec::new(),
            pages: FastMap::default(),
            thread_vc: vec![None; num_cores],
            process_vc: 0,
            pools_per_core: vec![0; num_cores],
            bootstrapped: false,
            reconfigurations: 0,
            obs_log: Vec::new(),
            vc_scratch: Vec::new(),
            config,
            sys,
        };
        // The process VC exists from the start, centered mid-chip.
        let mesh = rt.sys.floorplan.mesh();
        let center = wp_noc::Coord::new(mesh.width() / 2, mesh.height() / 2);
        rt.process_vc = rt.create_vc(VcKind::Process, center);
        rt
    }

    /// Number of reconfigurations performed.
    pub fn reconfigurations(&self) -> u64 {
        self.reconfigurations
    }

    /// The VC states (for instrumentation and figures).
    pub fn vcs(&self) -> &[VcState] {
        &self.vcs
    }

    /// The allocation trace hook: granules currently allocated per VC,
    /// labelled (drives Fig. 11a).
    pub fn allocations(&self) -> VcAllocations {
        self.vcs
            .iter()
            .map(|v| (v.label(), v.allocated_granules, v.bypassed))
            .collect()
    }

    /// Appends one [`wp_obs::ReconfigEvent`] for the reconfiguration that
    /// just completed: `old` is the allocation table on entry, `apki` the
    /// per-VC curve signal handed to the sizer.
    fn log_reconfig(&mut self, now: u64, old: &VcAllocations, apki: &[f64]) {
        let pools = self
            .vcs
            .iter()
            .enumerate()
            .map(|(i, vc)| wp_obs::PoolChange {
                pool: vc.label(),
                old_granules: old.get(i).map(|&(_, g, _)| g),
                new_granules: vc.allocated_granules,
                bypassed: vc.bypassed,
                apki: apki.get(i).copied().unwrap_or(0.0),
            })
            .collect();
        self.obs_log.push(wp_obs::ReconfigEvent {
            cycle: now,
            index: self.reconfigurations,
            pools,
        });
    }

    fn create_vc(&mut self, kind: VcKind, center: wp_noc::Coord) -> u32 {
        let idx = self.vcs.len() as u32;
        let home_bank = self.sys.floorplan.banks_by_distance_from(center)[0];
        self.vcs.push(VcState::new(
            VcId(idx),
            kind,
            center,
            self.sys.floorplan.num_cores(),
            self.config.monitor,
            home_bank,
        ));
        idx
    }

    fn thread_vc_of(&mut self, core: CoreId) -> u32 {
        if let Some(idx) = self.thread_vc[core.0 as usize] {
            return idx;
        }
        let center = self.sys.floorplan.core_coord(core);
        let idx = self.create_vc(VcKind::ThreadPrivate(core), center);
        self.thread_vc[core.0 as usize] = Some(idx);
        idx
    }

    /// Resolves the VC of an access, applying the lazy-upgrade rule: pages
    /// start thread-private to their first toucher; an access from another
    /// core upgrades the page to the process VC (Sec. 2.4). Pool-tagged
    /// pages never upgrade — the pool VC's center adapts instead.
    fn resolve_vc(&mut self, core: CoreId, page: PageId) -> u32 {
        if let Some(entry) = self.pages.get_mut(&page) {
            let (idx, owner) = *entry;
            if owner != core
                && idx != self.process_vc
                && !matches!(self.vcs[idx as usize].kind, VcKind::UserPool { .. })
            {
                // Upgrade to the process VC; resident lines in the old VC
                // become unreachable and age out.
                entry.0 = self.process_vc;
                return self.process_vc;
            }
            return idx;
        }
        let idx = self.thread_vc_of(core);
        self.pages.insert(page, (idx, core));
        idx
    }

    /// Serves one access whose VC is already resolved: the body of
    /// [`LlcScheme::access`] after the page lookup.
    #[inline]
    fn serve_vc(
        &mut self,
        core: CoreId,
        line: LineAddr,
        idx: u32,
        uncore: &mut Uncore,
    ) -> LlcResponse {
        let vc = &mut self.vcs[idx as usize];
        vc.note_access(core);
        vc.monitor.record(line.0);
        if vc.bypassed {
            vc.bypasses += 1;
            let latency = uncore.bypass_to_memory(core, line);
            return LlcResponse {
                latency,
                outcome: LlcOutcome::Bypass,
            };
        }
        let bank = vc.vtb.lookup(line);
        match self.banks[bank.0 as usize].access(idx, line.0) {
            wp_cache::AccessOutcome::Hit => {
                self.vcs[idx as usize].hits += 1;
                LlcResponse {
                    latency: uncore.bank_hit(core, bank),
                    outcome: LlcOutcome::Hit,
                }
            }
            wp_cache::AccessOutcome::Miss { .. } => {
                self.vcs[idx as usize].misses += 1;
                LlcResponse {
                    latency: uncore.bank_miss_to_memory(core, bank, line),
                    outcome: LlcOutcome::Miss,
                }
            }
        }
    }

    /// Initial configuration before the first reconfiguration: capacity is
    /// split evenly across live VCs and placed greedily — a reasonable
    /// stand-in for Jigsaw's warm-up interval.
    fn bootstrap(&mut self, uncore: &mut Uncore) {
        self.bootstrapped = true;
        let live: Vec<usize> = (0..self.vcs.len()).collect();
        if live.is_empty() {
            return;
        }
        let total = self.sys.total_granules();
        let share = total / live.len();
        let inputs: Vec<PlacementInput> = live
            .iter()
            .map(|&i| PlacementInput {
                granules: share,
                center: self.vcs[i].center,
                intensity: 1.0,
            })
            .collect();
        let placement = place_and_trade(
            &inputs,
            &self.sys.floorplan,
            self.sys.granules_per_bank() as u32,
        );
        for (slot, &i) in live.iter().enumerate() {
            self.vcs[i].allocated_granules = share;
            self.apply_shares(i, placement.shares_of(slot), uncore);
        }
    }

    /// Applies a placement to VC `i`: updates bank quotas (charging
    /// invalidation traffic for shrunk partitions) and rebuilds its VTB.
    fn apply_shares(&mut self, i: usize, shares: Vec<(wp_noc::BankId, u32)>, uncore: &mut Uncore) {
        let gl = self.sys.granule_lines;
        let new_quota: HashMap<u16, u64> =
            shares.iter().map(|&(b, g)| (b.0, g as u64 * gl)).collect();
        // Shrink/remove pass. Banks dropped from the VC are invalidated
        // (their lines are unreachable through the new VTB); banks merely
        // shrunk converge lazily, as Vantage's fine-grain partitioning
        // does, avoiding invalidation storms on small quota jitter.
        let old_banks: Vec<wp_noc::BankId> = self.vcs[i].shares.iter().map(|&(b, _)| b).collect();
        for b in old_banks {
            let new = new_quota.get(&b.0).copied().unwrap_or(0);
            let old = self.banks[b.0 as usize].quota(i as u32);
            if new == 0 && old > 0 {
                let evicted = self.banks[b.0 as usize].remove_partition(i as u32);
                uncore.reconfiguration_invalidations(b, evicted as u64);
            } else if new < old as u64 {
                self.banks[b.0 as usize].set_quota_lazy(i as u32, new as usize);
            }
        }
        // Grow pass.
        for (&bank, &lines) in &new_quota {
            if lines > 0 {
                self.banks[bank as usize].set_quota_lazy(i as u32, lines as usize);
            }
        }
        // VTB update: minimal bucket reassignment keeps resident lines
        // reachable across reconfigurations (only moved capacity remaps).
        let vc = &mut self.vcs[i];
        vc.shares = shares
            .iter()
            .map(|&(b, g)| (b, g as u64 * gl))
            .filter(|&(_, l)| l > 0)
            .collect();
        if vc.shares.is_empty() {
            let home = self.sys.floorplan.banks_by_distance_from(vc.center)[0];
            vc.vtb = Vtb::degenerate(home);
        } else {
            vc.vtb.rebalance(&vc.shares);
        }
    }
}

impl LlcScheme for NucaRuntime {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn attach_core(&mut self, core: CoreId, pools: &[PoolDescriptor]) {
        self.thread_vc_of(core);
        if !self.config.per_pool_vcs {
            return;
        }
        for pool in pools {
            if pool.pool.is_none() {
                continue; // untagged data stays in the thread VC
            }
            if self.pools_per_core[core.0 as usize] >= self.config.max_pools_per_core {
                break; // out of VTB entries: remaining pools use the thread VC
            }
            self.pools_per_core[core.0 as usize] += 1;
            let center = self.sys.floorplan.core_coord(core);
            let idx = self.create_vc(
                VcKind::UserPool {
                    home: core,
                    name: pool.name.clone(),
                },
                center,
            );
            for &page in &pool.pages {
                self.pages.insert(page, (idx, core));
            }
        }
    }

    fn access(&mut self, ctx: AccessContext, uncore: &mut Uncore) -> LlcResponse {
        if !self.bootstrapped {
            self.bootstrap(uncore);
        }
        let idx = self.resolve_vc(ctx.core, ctx.line.page());
        self.serve_vc(ctx.core, ctx.line, idx, uncore)
    }

    /// Resolves every event's VC in order. Only `resolve_vc` reads or
    /// writes the page map, and nothing that serving an access changes
    /// feeds back into it, so the resolutions are the per-event ones —
    /// and the page → VC → VTB → bank chain is known a whole quantum
    /// ahead.
    fn prepare(&mut self, core: CoreId, batch: &EventBatch, uncore: &mut Uncore) {
        if !self.bootstrapped {
            self.bootstrap(uncore);
        }
        let mut vcs = std::mem::take(&mut self.vc_scratch);
        vcs.clear();
        vcs.extend(batch.lines.iter().map(|l| self.resolve_vc(core, l.page())));
        self.vc_scratch = vcs;
    }

    /// The monitor's stack slot (sampled lines only) and the bank
    /// partition's index slot that serving event `i` probes first: each
    /// is otherwise a host cache miss on the simulated access path.
    fn prefetch(&self, _core: CoreId, batch: &EventBatch, i: usize) {
        let (idx, line) = (self.vc_scratch[i], batch.lines[i]);
        let vc = &self.vcs[idx as usize];
        vc.monitor.prefetch(line.0);
        if !vc.bypassed {
            self.banks[vc.vtb.lookup(line).0 as usize].prefetch(idx, line.0);
        }
    }

    fn serve(
        &mut self,
        core: CoreId,
        batch: &EventBatch,
        i: usize,
        uncore: &mut Uncore,
    ) -> LlcResponse {
        self.serve_vc(core, batch.lines[i], self.vc_scratch[i], uncore)
    }

    fn reconfigure(&mut self, uncore: &mut Uncore) {
        self.reconfigurations += 1;
        let old_alloc = self.allocations();
        let plan = self.sys.floorplan.clone();
        let core_coords: Vec<wp_noc::Coord> = (0..plan.num_cores())
            .map(|c| plan.core_coord(CoreId(c as u16)))
            .collect();
        // 1. Per-VC: normalize curves by their accessors' instructions,
        //    update centers, roll monitors over.
        let mut inputs = Vec::with_capacity(self.vcs.len());
        for vc in &mut self.vcs {
            let norm: u64 = vc
                .core_accesses
                .iter()
                .enumerate()
                .filter(|&(_, &n)| n > 0)
                .map(|(c, _)| uncore.interval_instructions[c])
                .sum();
            let norm = if norm == 0 {
                uncore.interval_instructions.iter().sum::<u64>().max(1)
            } else {
                norm
            };
            vc.update_center(&core_coords);
            let single = vc.single_accessor().is_some();
            let bypassable = self.config.bypass_enabled && single;
            let curve = vc.monitor.rollover(norm);
            vc.end_interval();
            inputs.push(SizingInput {
                apki: curve.at_zero(),
                miss_curve: curve,
                center: vc.center,
                bypassable,
            });
        }
        // 2. Size on latency curves.
        let sizing = size_vcs(
            &inputs,
            &plan,
            self.sys.granules_per_bank(),
            self.sys.bank_latency,
            self.sys.miss_penalty(),
            self.sys.total_granules(),
        );
        // Hysteresis: a VC whose allocation moved by <5% (monitor noise)
        // keeps its current size — re-sizing for jitter costs remapping
        // misses for no benefit. If every VC is stable, keep the whole
        // configuration (no re-placement at all).
        let mut sizing = sizing;
        let mut any_changed = false;
        if self.bootstrapped && self.reconfigurations > 1 {
            for (i, vc) in self.vcs.iter().enumerate() {
                let old = vc.allocated_granules as f64;
                let new = sizing.granules[i] as f64;
                let stable =
                    sizing.bypassed[i] == vc.bypassed && (new - old).abs() <= (0.05 * old).max(1.0);
                if stable {
                    sizing.granules[i] = vc.allocated_granules;
                    sizing.bypassed[i] = vc.bypassed;
                } else {
                    any_changed = true;
                }
            }
            if !any_changed {
                let apki: Vec<f64> = inputs.iter().map(|i| i.apki).collect();
                self.log_reconfig(uncore.now, &old_alloc, &apki);
                return;
            }
            // Frozen sizes may momentarily exceed capacity together with
            // grown ones; scale grown VCs back if needed.
            let total: usize = sizing.granules.iter().sum();
            let budget = self.sys.total_granules();
            if total > budget {
                let mut excess = total - budget;
                for (i, g) in sizing.granules.iter_mut().enumerate() {
                    if excess == 0 {
                        break;
                    }
                    let old = self.vcs[i].allocated_granules;
                    if *g > old {
                        let cut = (*g - old).min(excess);
                        *g -= cut;
                        excess -= cut;
                    }
                }
            }
        }
        // 3. Place with trading.
        for (i, vc) in self.vcs.iter_mut().enumerate() {
            vc.allocated_granules = sizing.granules[i];
        }
        let placement_inputs: Vec<PlacementInput> = self
            .vcs
            .iter()
            .enumerate()
            .map(|(i, vc)| PlacementInput {
                granules: sizing.granules[i],
                center: vc.center,
                intensity: vc.intensity(),
            })
            .collect();
        let placement = place_and_trade(
            &placement_inputs,
            &plan,
            self.sys.granules_per_bank() as u32,
        );
        // 4. Apply, handling bypass-mode switches.
        for i in 0..self.vcs.len() {
            let entering_bypass = sizing.bypassed[i] && !self.vcs[i].bypassed;
            let exiting_bypass = !sizing.bypassed[i] && self.vcs[i].bypassed;
            self.vcs[i].bypassed = sizing.bypassed[i];
            if entering_bypass {
                // Invalidate the VC in the LLC (coherence, Sec. 3.2).
                for b in 0..self.banks.len() {
                    let lines = self.banks[b].remove_partition(i as u32);
                    uncore.reconfiguration_invalidations(wp_noc::BankId(b as u16), lines as u64);
                }
            }
            let _ = exiting_bypass; // L2 invalidation traffic is negligible
            self.apply_shares(i, placement.shares_of(i), uncore);
        }
        self.bootstrapped = true;
        let apki: Vec<f64> = inputs.iter().map(|i| i.apki).collect();
        self.log_reconfig(uncore.now, &old_alloc, &apki);
    }

    fn bank_occupancy(&self) -> Vec<(usize, String, f64)> {
        let lines_per_bank = self.sys.lines_per_bank() as f64;
        let mut out = Vec::new();
        for vc in &self.vcs {
            for &(bank, lines) in &vc.shares {
                out.push((bank.0 as usize, vc.label(), lines as f64 / lines_per_bank));
            }
        }
        out
    }

    fn pool_occupancy(&self) -> Vec<wp_obs::PoolOcc> {
        self.vcs
            .iter()
            .map(|vc| wp_obs::PoolOcc {
                pool: vc.label(),
                granules: vc.allocated_granules,
                bypassed: vc.bypassed,
                accesses: vc.hits + vc.misses + vc.bypasses,
                // Bypasses go to memory, so the timeline counts them as
                // misses — same convention as the figures' MPKI.
                misses: vc.misses + vc.bypasses,
            })
            .collect()
    }

    fn reconfig_log(&self) -> Vec<wp_obs::ReconfigEvent> {
        self.obs_log.clone()
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

    #[test]
    fn pages_start_thread_private() {
        let mut rt = NucaRuntime::new(sys(), NucaConfig::for_system(&sys(), false, true), "J");
        let mut u = Uncore::new(sys());
        rt.attach_core(CoreId(0), &[]);
        rt.access(ctx(0, 100), &mut u);
        let page = LineAddr(100).page();
        let idx = rt.pages[&page].0;
        assert!(matches!(
            rt.vcs[idx as usize].kind,
            VcKind::ThreadPrivate(CoreId(0))
        ));
    }

    #[test]
    fn foreign_access_upgrades_to_process_vc() {
        let mut rt = NucaRuntime::new(sys(), NucaConfig::for_system(&sys(), false, true), "J");
        let mut u = Uncore::new(sys());
        rt.attach_core(CoreId(0), &[]);
        rt.attach_core(CoreId(1), &[]);
        rt.access(ctx(0, 100), &mut u);
        rt.access(ctx(1, 100), &mut u); // same page, different core
        let page = LineAddr(100).page();
        assert_eq!(rt.pages[&page].0, rt.process_vc);
    }

    #[test]
    fn pool_pages_go_to_pool_vc_and_never_upgrade() {
        let cfg = NucaConfig::for_system(&sys(), true, true);
        let mut rt = NucaRuntime::new(sys(), cfg, "W");
        let mut u = Uncore::new(sys());
        let pool = PoolDescriptor {
            name: "vertices".into(),
            pool: Some(wp_mem::PoolId(1)),
            pages: vec![LineAddr(100).page()],
            bytes: 4096,
        };
        rt.attach_core(CoreId(0), std::slice::from_ref(&pool));
        rt.access(ctx(0, 100), &mut u);
        rt.access(ctx(2, 100), &mut u);
        let page = LineAddr(100).page();
        let idx = rt.pages[&page].0;
        assert!(matches!(rt.vcs[idx as usize].kind, VcKind::UserPool { .. }));
    }

    #[test]
    fn jigsaw_ignores_pools() {
        let mut j = NucaRuntime::new(sys(), NucaConfig::for_system(&sys(), false, true), "J");
        let pool = PoolDescriptor {
            name: "p".into(),
            pool: Some(wp_mem::PoolId(1)),
            pages: vec![PageId(5)],
            bytes: 4096,
        };
        j.attach_core(CoreId(0), &[pool]);
        // Only process VC + thread VC exist.
        assert_eq!(j.vcs().len(), 2);
    }

    #[test]
    fn max_pools_per_core_enforced() {
        let cfg = NucaConfig::for_system(&sys(), true, true);
        let mut rt = NucaRuntime::new(sys(), cfg, "W");
        let pools: Vec<PoolDescriptor> = (0..6)
            .map(|i| PoolDescriptor {
                name: format!("p{i}"),
                pool: Some(wp_mem::PoolId(i + 1)),
                pages: vec![PageId(100 + i as u64)],
                bytes: 4096,
            })
            .collect();
        rt.attach_core(CoreId(0), &pools);
        let user_vcs = rt
            .vcs()
            .iter()
            .filter(|v| matches!(v.kind, VcKind::UserPool { .. }))
            .count();
        assert_eq!(user_vcs, 4, "provisioned VTB entries cap pools at 4");
    }

    #[test]
    fn repeated_access_hits_after_fill() {
        let mut rt = NucaRuntime::new(sys(), NucaConfig::for_system(&sys(), false, true), "J");
        let mut u = Uncore::new(sys());
        rt.attach_core(CoreId(0), &[]);
        let first = rt.access(ctx(0, 7), &mut u);
        assert_eq!(first.outcome, LlcOutcome::Miss);
        let second = rt.access(ctx(0, 7), &mut u);
        assert_eq!(second.outcome, LlcOutcome::Hit);
        assert!(second.latency < first.latency);
    }

    #[test]
    fn reconfigure_allocates_to_hot_vc() {
        let mut rt = NucaRuntime::new(sys(), NucaConfig::for_system(&sys(), false, true), "J");
        let mut u = Uncore::new(sys());
        rt.attach_core(CoreId(0), &[]);
        // Loop over a 1 MB working set (16 granules) from core 0.
        for rep in 0..4 {
            for l in 0..16_384u64 {
                rt.access(ctx(0, l), &mut u);
            }
            let _ = rep;
        }
        u.interval_instructions[0] = 1_000_000;
        rt.reconfigure(&mut u);
        let thread_vc = rt.thread_vc[0].unwrap() as usize;
        let alloc = rt.vcs[thread_vc].allocated_granules;
        assert!(
            (12..=40).contains(&alloc),
            "thread VC should get ~its 16-granule working set, got {alloc}"
        );
        // Warm the new placement (the reconfiguration moved lines to
        // different banks), then the working set should mostly hit.
        for l in 0..16_384u64 {
            rt.access(ctx(0, l), &mut u);
        }
        let mut hits = 0;
        for l in 0..16_384u64 {
            if rt.access(ctx(0, l), &mut u).outcome == LlcOutcome::Hit {
                hits += 1;
            }
        }
        assert!(hits > 12_000, "only {hits}/16384 hits after reconfigure");
    }

    #[test]
    fn streaming_thread_vc_bypasses_under_jigsaw_with_bypass() {
        let mut rt = NucaRuntime::new(sys(), NucaConfig::for_system(&sys(), false, true), "J");
        let mut u = Uncore::new(sys());
        rt.attach_core(CoreId(0), &[]);
        // Pure streaming: never re-touch a line. Needs two reconfigs: one
        // to learn the flat curve, one to act on it.
        let mut next = 0u64;
        for _ in 0..2 {
            for _ in 0..100_000 {
                rt.access(ctx(0, next), &mut u);
                next += 1;
            }
            u.interval_instructions[0] = 1_000_000;
            rt.reconfigure(&mut u);
        }
        let thread_vc = rt.thread_vc[0].unwrap() as usize;
        assert!(
            rt.vcs[thread_vc].bypassed,
            "streaming VC should be bypassed"
        );
        let r = rt.access(ctx(0, next), &mut u);
        assert_eq!(r.outcome, LlcOutcome::Bypass);
    }

    #[test]
    fn no_bypass_config_never_bypasses() {
        let mut rt = NucaRuntime::new(sys(), NucaConfig::for_system(&sys(), false, false), "JNB");
        let mut u = Uncore::new(sys());
        rt.attach_core(CoreId(0), &[]);
        let mut next = 0u64;
        for _ in 0..2 {
            for _ in 0..50_000 {
                rt.access(ctx(0, next), &mut u);
                next += 1;
            }
            u.interval_instructions[0] = 500_000;
            rt.reconfigure(&mut u);
        }
        assert!(rt.vcs.iter().all(|v| !v.bypassed));
    }

    #[test]
    fn occupancy_reports_shares() {
        let mut rt = NucaRuntime::new(sys(), NucaConfig::for_system(&sys(), false, true), "J");
        let mut u = Uncore::new(sys());
        rt.attach_core(CoreId(0), &[]);
        // Re-walk a working set so the VC has reuse and earns capacity
        // (a single cold pass would correctly be bypassed instead).
        for _ in 0..3 {
            for l in 0..8192u64 {
                rt.access(ctx(0, l), &mut u);
            }
        }
        u.interval_instructions[0] = 100_000;
        rt.reconfigure(&mut u);
        let occ = rt.bank_occupancy();
        assert!(!occ.is_empty());
        for (bank, _, frac) in occ {
            assert!(bank < 25);
            assert!(frac > 0.0 && frac <= 1.0 + 1e-9);
        }
    }
}
