//! Shared uncore state: floorplan, energy meter, memory channels.
//!
//! All schemes charge latency and energy through these helpers, so the
//! accounting (flit-hops per message, bank accesses, DRAM events) is
//! identical across S-NUCA, IdealSPD, Awasthi, Jigsaw, and Whirlpool — the
//! property that makes the paper's cross-scheme energy comparisons fair.

use wp_mem::LineAddr;
use wp_noc::{BankId, CoreId, Floorplan, McuId};

use crate::config::SystemConfig;
use crate::energy::{EnergyBreakdown, EnergyMeter};
use crate::memory::MemoryChannels;

/// The uncore: everything below the private caches that schemes share.
#[derive(Debug)]
pub struct Uncore {
    config: SystemConfig,
    energy: EnergyMeter,
    channels: MemoryChannels,
    /// Global time (cycles), advanced by the driver; used for memory
    /// queueing and reconfiguration cadence.
    pub now: u64,
    /// Instructions retired per core this interval (for MPKI normalization
    /// inside schemes' monitors).
    pub interval_instructions: Vec<u64>,
}

impl Uncore {
    /// Builds the uncore for a configuration.
    pub fn new(config: SystemConfig) -> Self {
        let channels = MemoryChannels::new(
            config.floorplan.num_mcus(),
            config.mem_bytes_per_cycle,
            config.mem_zero_load_latency,
        );
        let energy = EnergyMeter::new(config.energy);
        let cores = config.floorplan.num_cores();
        Self {
            config,
            energy,
            channels,
            now: 0,
            interval_instructions: vec![0; cores],
        }
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The floorplan.
    pub fn plan(&self) -> &Floorplan {
        &self.config.floorplan
    }

    /// Accumulated energy breakdown.
    pub fn energy(&self) -> EnergyBreakdown {
        self.energy.breakdown()
    }

    /// Raw energy event counts `(flit_hops, bank_accesses, dram_accesses)`.
    pub fn energy_events(&self) -> (u64, u64, u64) {
        self.energy.event_counts()
    }

    /// Serves an LLC hit in `bank`: request + data response over the NoC
    /// plus one bank access. Returns the latency in cycles.
    pub fn bank_hit(&mut self, core: CoreId, bank: BankId) -> f64 {
        let plan = &self.config.floorplan;
        let hops = plan.hops_core_bank(core, bank);
        let p = plan.params();
        self.energy.add_flit_hops(p.round_trip_flit_hops(hops));
        self.energy.add_bank_accesses(1);
        (p.round_trip_latency(hops) + self.config.bank_latency) as f64
    }

    /// A lookup that misses in `bank` (tag check, no data): charged as a
    /// bank access with a control round trip. Returns the latency.
    /// Multi-level D-NUCAs (IdealSPD) pay this repeatedly — the data
    /// movement the paper charges them for.
    pub fn bank_lookup_miss(&mut self, core: CoreId, bank: BankId) -> f64 {
        let plan = &self.config.floorplan;
        let hops = plan.hops_core_bank(core, bank);
        let p = plan.params();
        self.energy.add_flit_hops(p.ctrl_flits * 2 * hops.max(1));
        self.energy.add_bank_accesses(1);
        (p.round_trip_latency(hops) + self.config.bank_latency) as f64
    }

    /// Serves an LLC miss through `bank`: the bank forwards to the line's
    /// MCU, memory responds, data returns via the bank to the core.
    /// Returns total latency.
    pub fn bank_miss_to_memory(&mut self, core: CoreId, bank: BankId, line: LineAddr) -> f64 {
        let plan = &self.config.floorplan;
        let p = plan.params();
        let mcu = plan.mcu_of_line(line.0);
        let h_cb = plan.hops_core_bank(core, bank);
        let h_bm = plan.hops_bank_mcu(bank, mcu);
        // Request to bank (ctrl), bank to MCU (ctrl), data back MCU→bank→core.
        self.energy.add_flit_hops(p.ctrl_flits * h_cb.max(1));
        self.energy.add_flit_hops(p.ctrl_flits * h_bm.max(1));
        self.energy.add_flit_hops(p.data_flits * h_bm.max(1));
        self.energy.add_flit_hops(p.data_flits * h_cb.max(1));
        self.energy.add_bank_accesses(1); // tag check + fill, charged once
        let mem_lat = self.mem_access(mcu);
        (p.round_trip_latency(h_cb) + self.config.bank_latency) as f64
            + p.round_trip_latency(h_bm) as f64
            + mem_lat
    }

    /// Serves a bypassed access: core's L2 miss goes straight to the MCU
    /// with no LLC lookup (Whirlpool bypass VCs, Sec. 3.2). Returns latency.
    pub fn bypass_to_memory(&mut self, core: CoreId, line: LineAddr) -> f64 {
        let plan = &self.config.floorplan;
        let p = plan.params();
        let mcu = plan.mcu_of_line(line.0);
        let hops = plan.hops_core_mcu(core, mcu);
        self.energy.add_flit_hops(p.ctrl_flits * hops.max(1));
        self.energy.add_flit_hops(p.data_flits * hops.max(1));
        let mem_lat = self.mem_access(mcu);
        p.round_trip_latency(hops) as f64 + mem_lat
    }

    /// Charges the traffic of invalidating `lines` lines in `bank` during a
    /// reconfiguration (bank reads + writeback-ish data movement to the
    /// MCU for a conservative fraction).
    pub fn reconfiguration_invalidations(&mut self, bank: BankId, lines: u64) {
        if lines == 0 {
            return;
        }
        let plan = &self.config.floorplan;
        let p = plan.params();
        self.energy.add_bank_accesses(lines);
        // Assume a third of invalidated lines are dirty and write back.
        let dirty = lines / 3;
        if dirty > 0 {
            let mcu = plan.mcu_of_line(0);
            let hops = plan.hops_bank_mcu(bank, mcu);
            self.energy
                .add_flit_hops(dirty * p.data_flits * hops.max(1));
            self.energy.add_dram_accesses(dirty);
        }
    }

    /// Charges one bank access with no network traffic (e.g. a victim-cache
    /// insertion performed locally at the bank).
    pub fn charge_bank_insert(&mut self) {
        self.energy.add_bank_accesses(1);
    }

    /// Charges a one-way data transfer between a core's tile and a bank
    /// (e.g. an eviction spilling from a private region to a victim bank).
    pub fn charge_core_bank_data(&mut self, core: CoreId, bank: BankId) {
        let plan = &self.config.floorplan;
        let hops = plan.hops_core_bank(core, bank);
        let flits = plan.params().data_flits;
        self.energy.add_flit_hops(flits * hops.max(1));
    }

    /// One DRAM access at `mcu` (the line's owner, which the caller has
    /// already looked up) at the current time; returns latency including
    /// queueing.
    fn mem_access(&mut self, mcu: McuId) -> f64 {
        self.energy.add_dram_accesses(1);
        self.channels.access(mcu.0 as usize, self.now) as f64
    }

    /// Total DRAM accesses served so far.
    pub fn dram_accesses(&self) -> u64 {
        self.channels.accesses()
    }

    /// Zeroes the energy meter (measurement reset after warmup).
    pub fn reset_energy(&mut self) {
        self.energy.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;

    fn uncore() -> Uncore {
        Uncore::new(SystemConfig::four_core())
    }

    #[test]
    fn hit_latency_grows_with_distance() {
        let mut u = uncore();
        let plan = u.plan().clone();
        let near = plan.banks_by_distance(CoreId(0))[0];
        let far = *plan.banks_by_distance(CoreId(0)).last().unwrap();
        let l_near = u.bank_hit(CoreId(0), near);
        let l_far = u.bank_hit(CoreId(0), far);
        assert!(l_far > l_near);
    }

    #[test]
    fn miss_costs_more_than_hit() {
        let mut u = uncore();
        let bank = u.plan().banks_by_distance(CoreId(0))[0];
        let hit = u.bank_hit(CoreId(0), bank);
        let miss = u.bank_miss_to_memory(CoreId(0), bank, LineAddr(1));
        assert!(miss > hit + 100.0, "miss {miss} vs hit {hit}");
    }

    #[test]
    fn bypass_skips_bank_energy() {
        let mut u = uncore();
        let (_, banks_before, _) = u.energy_events();
        u.bypass_to_memory(CoreId(0), LineAddr(7));
        let (_, banks_after, dram) = u.energy_events();
        assert_eq!(banks_before, banks_after, "bypass must not touch banks");
        assert_eq!(dram, 1);
    }

    #[test]
    fn energy_splits_into_three_buckets() {
        let mut u = uncore();
        let bank = u.plan().banks_by_distance(CoreId(0))[5];
        u.bank_miss_to_memory(CoreId(0), bank, LineAddr(3));
        let e = u.energy();
        assert!(e.network_nj > 0.0 && e.bank_nj > 0.0 && e.memory_nj > 0.0);
    }

    #[test]
    fn invalidations_charge_banks() {
        let mut u = uncore();
        let (_, b0, d0) = u.energy_events();
        u.reconfiguration_invalidations(BankId(0), 300);
        let (_, b1, d1) = u.energy_events();
        assert_eq!(b1 - b0, 300);
        assert_eq!(d1 - d0, 100);
    }
}
