//! Static NUCA (S-NUCA): line-interleaved banks, no placement intelligence.
//!
//! "Many commercial processors adopt a static NUCA design that hashes
//! addresses evenly across banks" (Sec. 2.1, Fig. 3). Data lands wherever
//! the hash sends it, so a core's working set is smeared across the whole
//! chip — the data-movement baseline every other scheme improves on.

use wp_cache::{AccessOutcome, DrripPolicy, LruPolicy, ReplacementPolicy, SetAssocCache};
use wp_mem::LineAddr;
use wp_noc::{BankId, CoreId};
use wp_sim::{
    AccessContext, EventBatch, LlcOutcome, LlcResponse, LlcScheme, PoolDescriptor, SystemConfig,
    Uncore,
};

/// Replacement policy choice for the S-NUCA banks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnucaReplacement {
    /// Per-bank LRU.
    Lru,
    /// Per-bank DRRIP (the paper's high-performance replacement baseline).
    Drrip,
}

enum BankCache {
    Lru(SetAssocCache<LruPolicy>),
    Drrip(SetAssocCache<DrripPolicy>),
}

impl BankCache {
    fn access(&mut self, line: u64) -> AccessOutcome {
        match self {
            BankCache::Lru(c) => c.access(line),
            BankCache::Drrip(c) => c.access(line),
        }
    }

    fn prefetch(&self, line: u64) {
        match self {
            BankCache::Lru(c) => c.prefetch(line),
            BankCache::Drrip(c) => c.prefetch(line),
        }
    }
}

/// The S-NUCA scheme.
pub struct SNucaScheme {
    banks: Vec<BankCache>,
    num_banks: u64,
    label: String,
    /// The current quantum's bank ids, filled by [`LlcScheme::prepare`];
    /// reused so batched runs allocate nothing in steady state.
    bank_scratch: Vec<u16>,
}

impl std::fmt::Debug for SNucaScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SNucaScheme")
            .field("label", &self.label)
            .finish()
    }
}

impl SNucaScheme {
    /// Builds S-NUCA over the system's banks. Banks are modelled as 16-way
    /// set-associative (standing in for the paper's 4-way 52-candidate
    /// zcache; see DESIGN.md).
    pub fn new(sys: &SystemConfig, replacement: SnucaReplacement) -> Self {
        let ways = 16;
        let num_banks = sys.floorplan.num_banks();
        let banks = (0..num_banks)
            .map(|_| match replacement {
                SnucaReplacement::Lru => BankCache::Lru(SetAssocCache::with_capacity_bytes(
                    sys.bank_bytes,
                    ways,
                    LruPolicy::new(),
                )),
                SnucaReplacement::Drrip => {
                    BankCache::Drrip(SetAssocCache::with_capacity_bytes(sys.bank_bytes, ways, {
                        let mut p = DrripPolicy::new(2);
                        p.configure(1, 1); // re-configured by the cache ctor
                        p
                    }))
                }
            })
            .collect();
        let label = match replacement {
            SnucaReplacement::Lru => "S-NUCA (LRU)",
            SnucaReplacement::Drrip => "S-NUCA (DRRIP)",
        };
        Self {
            banks,
            num_banks: num_banks as u64,
            label: label.into(),
            bank_scratch: Vec::new(),
        }
    }

    /// The bank a line hashes to (even interleave over a mixed hash).
    pub fn bank_of(&self, line: LineAddr) -> BankId {
        bank_hash(line, self.num_banks)
    }

    /// Serves `line` in `bank`: the body of [`LlcScheme::access`] once the
    /// bank is known.
    #[inline]
    fn serve_in(
        &mut self,
        bank: BankId,
        core: CoreId,
        line: LineAddr,
        uncore: &mut Uncore,
    ) -> LlcResponse {
        match self.banks[usize::from(bank.0)].access(line.0) {
            AccessOutcome::Hit => LlcResponse {
                latency: uncore.bank_hit(core, bank),
                outcome: LlcOutcome::Hit,
            },
            AccessOutcome::Miss { .. } => LlcResponse {
                latency: uncore.bank_miss_to_memory(core, bank, line),
                outcome: LlcOutcome::Miss,
            },
        }
    }
}

/// Even interleave of lines over `num_banks` through a mixed hash.
#[inline]
fn bank_hash(line: LineAddr, num_banks: u64) -> BankId {
    let mut h = line.0;
    h ^= h >> 33;
    h = h.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    h ^= h >> 33;
    BankId((h % num_banks) as u16)
}

impl LlcScheme for SNucaScheme {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn attach_core(&mut self, _core: CoreId, _pools: &[PoolDescriptor]) {}

    fn access(&mut self, ctx: AccessContext, uncore: &mut Uncore) -> LlcResponse {
        self.serve_in(self.bank_of(ctx.line), ctx.core, ctx.line, uncore)
    }

    /// Hashes the quantum's bank ids once, in a tight monomorphic loop,
    /// instead of once per prefetch plus once per access.
    fn prepare(&mut self, _core: CoreId, batch: &EventBatch, _uncore: &mut Uncore) {
        let num_banks = self.num_banks;
        self.bank_scratch.clear();
        self.bank_scratch
            .extend(batch.lines.iter().map(|&l| bank_hash(l, num_banks).0));
    }

    /// The bank set event `i` will probe: the tag arrays are tens of MB
    /// and hash-scattered, the whole reason simulated accesses are
    /// host-latency-bound.
    fn prefetch(&self, _core: CoreId, batch: &EventBatch, i: usize) {
        self.banks[usize::from(self.bank_scratch[i])].prefetch(batch.lines[i].0);
    }

    fn serve(
        &mut self,
        core: CoreId,
        batch: &EventBatch,
        i: usize,
        uncore: &mut Uncore,
    ) -> LlcResponse {
        self.serve_in(BankId(self.bank_scratch[i]), core, batch.lines[i], uncore)
    }

    fn reconfigure(&mut self, _uncore: &mut Uncore) {}

    fn bank_occupancy(&self) -> Vec<(usize, String, f64)> {
        // Data is smeared evenly: report uniform occupancy.
        (0..self.num_banks as usize)
            .map(|b| (b, "interleaved".to_string(), 1.0))
            .collect()
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
    fn lines_spread_across_banks() {
        let s = SNucaScheme::new(&sys(), SnucaReplacement::Lru);
        let mut seen = std::collections::HashSet::new();
        for l in 0..2000u64 {
            seen.insert(s.bank_of(LineAddr(l)));
        }
        assert_eq!(seen.len(), 25, "all banks should receive lines");
    }

    #[test]
    fn second_access_hits() {
        let mut s = SNucaScheme::new(&sys(), SnucaReplacement::Lru);
        let mut u = Uncore::new(sys());
        assert_eq!(s.access(ctx(0, 5), &mut u).outcome, LlcOutcome::Miss);
        assert_eq!(s.access(ctx(0, 5), &mut u).outcome, LlcOutcome::Hit);
    }

    #[test]
    fn working_set_within_llc_fits() {
        let mut s = SNucaScheme::new(&sys(), SnucaReplacement::Lru);
        let mut u = Uncore::new(sys());
        // 6 MB working set in a 12.5 MB LLC (dt-sized, Fig. 2).
        let lines = 6 * 1024 * 1024 / 64u64;
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
            hits as f64 > 0.95 * lines as f64,
            "{hits}/{lines} hits — S-NUCA should fit dt"
        );
    }

    #[test]
    fn drrip_variant_runs() {
        let mut s = SNucaScheme::new(&sys(), SnucaReplacement::Drrip);
        let mut u = Uncore::new(sys());
        for l in 0..10_000u64 {
            s.access(ctx(0, l % 512), &mut u);
        }
        assert_eq!(s.name(), "S-NUCA (DRRIP)");
    }

    #[test]
    fn average_hit_distance_is_chip_wide() {
        // The Fig. 3 pathology: even with a tiny working set, S-NUCA pays
        // chip-average distance. Compare energy vs an ideal near placement.
        let mut s = SNucaScheme::new(&sys(), SnucaReplacement::Lru);
        let mut u = Uncore::new(sys());
        for _ in 0..3 {
            for l in 0..512u64 {
                s.access(ctx(0, l), &mut u);
            }
        }
        let e = u.energy();
        // Mean hops from core 0 to all banks is ~3.? — network energy must
        // dominate a near-bank placement's. Just sanity-check it is nonzero
        // and larger than bank energy per access would suggest for 0 hops.
        assert!(e.network_nj > 0.0);
    }
}
