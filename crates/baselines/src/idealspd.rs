//! IdealSPD: an idealized private-baseline D-NUCA (Appendix A).
//!
//! Each core has a private 1.5 MB L3 that replicates the 3 closest NUCA
//! banks, followed by a fully-provisioned directory and an exclusive
//! S-NUCA L4 whose banks act as a victim cache accessed in parallel with
//! the directory. Private (L3) capacity does not reduce the shared (L4)
//! region — the idealization that upper-bounds DCC, ASR, and ECC (Herrero
//! et al. show it always outperforms them, often by up to 30%).
//!
//! Its weakness, faithfully modelled: benchmarks that do not fit the
//! private region pay *multi-level lookups* — an L3 check, then an L4
//! bank check — on every miss, adding latency and data-movement energy
//! (the Fig. 10/21 pathology).

use wp_cache::{AccessOutcome, LruPolicy, SetAssocCache};
use wp_mem::LineAddr;
use wp_noc::CoreId;
use wp_sim::{
    AccessContext, LlcOutcome, LlcResponse, LlcScheme, PoolDescriptor, SystemConfig, Uncore,
};

use crate::hashed_bank;

/// Private L3 capacity: 3 × 512 KB = 1.5 MB per core.
const L3_BANKS_REPLICATED: u64 = 3;

/// The IdealSPD scheme.
pub struct IdealSpdScheme {
    /// Per-core private L3.
    l3: Vec<SetAssocCache<LruPolicy>>,
    /// Exclusive shared L4, one cache per bank.
    l4: Vec<SetAssocCache<LruPolicy>>,
    num_banks: u64,
}

impl std::fmt::Debug for IdealSpdScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IdealSpdScheme")
            .field("cores", &self.l3.len())
            .finish()
    }
}

impl IdealSpdScheme {
    /// Builds IdealSPD for the system.
    pub fn new(sys: &SystemConfig) -> Self {
        let l3_bytes = L3_BANKS_REPLICATED * sys.bank_bytes;
        let cores = sys.floorplan.num_cores();
        let num_banks = sys.floorplan.num_banks();
        Self {
            l3: (0..cores)
                .map(|_| SetAssocCache::with_capacity_bytes(l3_bytes, 12, LruPolicy::new()))
                .collect(),
            l4: (0..num_banks)
                .map(|_| SetAssocCache::with_capacity_bytes(sys.bank_bytes, 16, LruPolicy::new()))
                .collect(),
            num_banks: num_banks as u64,
        }
    }
}

impl LlcScheme for IdealSpdScheme {
    fn name(&self) -> String {
        "IdealSPD".into()
    }

    fn attach_core(&mut self, _core: CoreId, _pools: &[PoolDescriptor]) {}

    fn access(&mut self, ctx: AccessContext, uncore: &mut Uncore) -> LlcResponse {
        let core_idx = ctx.core.0 as usize;
        let near_bank = uncore.plan().banks_by_distance(ctx.core)[0];
        // 1. Private L3 (the 3 replicated nearby banks).
        match self.l3[core_idx].access(ctx.line.0) {
            AccessOutcome::Hit => LlcResponse {
                latency: uncore.bank_hit(ctx.core, near_bank),
                outcome: LlcOutcome::Hit,
            },
            AccessOutcome::Miss { evicted } => {
                // The L3 check happened and missed: pay the lookup.
                let l3_lookup = uncore.bank_lookup_miss(ctx.core, near_bank);
                // Exclusive hierarchy: the L3 victim spills into its L4 bank.
                if let Some(victim) = evicted {
                    let vbank = hashed_bank(LineAddr(victim), self.num_banks);
                    uncore.charge_core_bank_data(ctx.core, vbank);
                    uncore.charge_bank_insert();
                    if let AccessOutcome::Miss {
                        evicted: Some(_l4_victim),
                    } = self.l4[vbank.0 as usize].access(victim)
                    {
                        // L4 victim dropped (clean-drop model).
                    }
                }
                // 2. L4 victim bank, in parallel with the directory.
                //    (Tag probe only: an exclusive L4 never fills on the
                //    demand path — lines enter it solely via L3 victims.)
                let l4_bank = hashed_bank(ctx.line, self.num_banks);
                if self.l4[l4_bank.0 as usize].contains(ctx.line.0) {
                    // Exclusive: promote to L3 (already filled above by the
                    // `access` that brought the line in), remove from L4.
                    self.l4[l4_bank.0 as usize].invalidate(ctx.line.0);
                    let lat = uncore.bank_hit(ctx.core, l4_bank);
                    LlcResponse {
                        latency: l3_lookup + lat,
                        outcome: LlcOutcome::Hit,
                    }
                } else {
                    let lat = uncore.bank_miss_to_memory(ctx.core, l4_bank, ctx.line);
                    LlcResponse {
                        latency: l3_lookup + lat,
                        outcome: LlcOutcome::Miss,
                    }
                }
            }
        }
    }

    fn reconfigure(&mut self, _uncore: &mut Uncore) {}

    fn bank_occupancy(&self) -> Vec<(usize, String, f64)> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn small_working_set_hits_private_fast() {
        let mut s = IdealSpdScheme::new(&sys());
        let mut u = Uncore::new(sys());
        // 1 MB fits the 1.5 MB L3.
        let lines = 16_384u64;
        for l in 0..lines {
            s.access(ctx(0, l), &mut u);
        }
        let mut hits = 0;
        let mut total_lat = 0.0;
        for l in 0..lines {
            let r = s.access(ctx(0, l), &mut u);
            if r.outcome == LlcOutcome::Hit {
                hits += 1;
                total_lat += r.latency;
            }
        }
        assert!(hits as f64 > 0.9 * lines as f64);
        // Private hits are near-bank fast (~15 cycles); a small tail of
        // set-conflict victims is served from the L4 at higher latency.
        assert!(total_lat / hits as f64 <= 25.0);
    }

    #[test]
    fn spilled_data_found_in_l4() {
        let mut s = IdealSpdScheme::new(&sys());
        let mut u = Uncore::new(sys());
        // 4 MB working set: exceeds L3 (1.5 MB), fits L3+L4 comfortably.
        let lines = 65_536u64;
        for l in 0..lines {
            s.access(ctx(0, l), &mut u);
        }
        let mut hits = 0;
        for l in 0..lines {
            if s.access(ctx(0, l), &mut u).outcome == LlcOutcome::Hit {
                hits += 1;
            }
        }
        assert!(
            hits as f64 > 0.8 * lines as f64,
            "{hits}/{lines}: victims should hit in the L4"
        );
    }

    #[test]
    fn multi_level_lookup_energy_penalty() {
        // The same L4-resident working set costs IdealSPD more bank
        // accesses than a single-lookup scheme would: every access pays an
        // L3 check first.
        let mut s = IdealSpdScheme::new(&sys());
        let mut u = Uncore::new(sys());
        let lines = 65_536u64; // 4 MB
        for rep in 0..3 {
            for l in 0..lines {
                s.access(ctx(0, l), &mut u);
            }
            let _ = rep;
        }
        let (_, bank_accesses, _) = u.energy_events();
        let total_accesses = 3 * lines;
        assert!(
            bank_accesses as f64 > 1.3 * total_accesses as f64,
            "expected >1.3 bank accesses per access, got {}",
            bank_accesses as f64 / total_accesses as f64
        );
    }

    #[test]
    fn cores_have_independent_private_regions() {
        let mut s = IdealSpdScheme::new(&sys());
        let mut u = Uncore::new(sys());
        for l in 0..1000u64 {
            s.access(ctx(0, l), &mut u);
        }
        // Core 1 never touched those lines: its L3 misses.
        let r = s.access(ctx(1, 5), &mut u);
        // Could hit in L4? No: line 5 is in core 0's L3 (exclusive, not in
        // L4) -> core 1 misses to memory under this no-directory-forward
        // idealization? The directory would forward; we model the common
        // single-threaded case where cross-core sharing is negligible.
        assert_eq!(r.outcome, LlcOutcome::Miss);
    }
}
