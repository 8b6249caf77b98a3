//! Per-core execution statistics.

use wp_obs::json::{fmt_f64, quote};

/// Counters for one core's execution.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CoreStats {
    /// Instructions retired.
    pub instructions: u64,
    /// Cycles elapsed (base CPI + data stalls).
    pub cycles: f64,
    /// Accesses that reached the LLC scheme.
    pub llc_accesses: u64,
    /// LLC hits.
    pub llc_hits: u64,
    /// LLC misses (served by memory through a bank).
    pub llc_misses: u64,
    /// Accesses that bypassed the LLC entirely (Whirlpool bypass VCs).
    pub llc_bypasses: u64,
    /// Cycles stalled on data (after MLP division).
    pub stall_cycles: f64,
}

impl CoreStats {
    /// Counter-wise difference `self − base` (measurement windows are
    /// deltas against a warmup baseline).
    pub fn delta(&self, base: &CoreStats) -> CoreStats {
        CoreStats {
            instructions: self.instructions - base.instructions,
            cycles: self.cycles - base.cycles,
            llc_accesses: self.llc_accesses - base.llc_accesses,
            llc_hits: self.llc_hits - base.llc_hits,
            llc_misses: self.llc_misses - base.llc_misses,
            llc_bypasses: self.llc_bypasses - base.llc_bypasses,
            stall_cycles: self.stall_cycles - base.stall_cycles,
        }
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0.0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles
        }
    }

    /// LLC accesses per kilo-instruction (the APKI of Fig. 10/21).
    pub fn llc_apki(&self) -> f64 {
        per_ki(self.llc_accesses + self.llc_bypasses, self.instructions)
    }

    /// LLC misses per kilo-instruction.
    pub fn llc_mpki(&self) -> f64 {
        per_ki(self.llc_misses, self.instructions)
    }

    /// LLC hits per kilo-instruction.
    pub fn llc_hpki(&self) -> f64 {
        per_ki(self.llc_hits, self.instructions)
    }

    /// Bypasses per kilo-instruction.
    pub fn llc_bpki(&self) -> f64 {
        per_ki(self.llc_bypasses, self.instructions)
    }
}

fn per_ki(count: u64, instructions: u64) -> f64 {
    if instructions == 0 {
        0.0
    } else {
        count as f64 * 1000.0 / instructions as f64
    }
}

impl CoreStats {
    /// This core's counters and derived rates as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"instructions\":{},\"cycles\":{},\"stall_cycles\":{},\"ipc\":{},\
             \"llc_accesses\":{},\"llc_hits\":{},\"llc_misses\":{},\"llc_bypasses\":{},\
             \"llc_apki\":{},\"llc_mpki\":{},\"llc_bpki\":{}}}",
            self.instructions,
            fmt_f64(self.cycles),
            fmt_f64(self.stall_cycles),
            fmt_f64(self.ipc()),
            self.llc_accesses,
            self.llc_hits,
            self.llc_misses,
            self.llc_bypasses,
            fmt_f64(self.llc_apki()),
            fmt_f64(self.llc_mpki()),
            fmt_f64(self.llc_bpki()),
        )
    }
}

impl crate::RunSummary {
    /// The whole run — scheme, per-core stats, energy — as one JSON
    /// object (single line, no trailing newline).
    pub fn to_json(&self) -> String {
        let cores: Vec<String> = self.cores.iter().map(CoreStats::to_json).collect();
        format!(
            "{{\"scheme\":{},\"cycles\":{},\"energy\":{{\"network_nj\":{},\"bank_nj\":{},\
             \"memory_nj\":{},\"total_nj\":{}}},\"energy_per_ki\":{},\"cores\":[{}]}}",
            quote(&self.scheme),
            self.cycles,
            fmt_f64(self.energy.network_nj),
            fmt_f64(self.energy.bank_nj),
            fmt_f64(self.energy.memory_nj),
            fmt_f64(self.energy.total_nj()),
            fmt_f64(self.energy_per_ki()),
            cores.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates() {
        let s = CoreStats {
            instructions: 10_000,
            cycles: 20_000.0,
            llc_accesses: 100,
            llc_hits: 60,
            llc_misses: 40,
            llc_bypasses: 50,
            ..Default::default()
        };
        assert!((s.ipc() - 0.5).abs() < 1e-12);
        assert!((s.llc_apki() - 15.0).abs() < 1e-12);
        assert!((s.llc_mpki() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn idle_core_rates_are_zero() {
        let s = CoreStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.llc_apki(), 0.0);
    }

    #[test]
    fn core_stats_json_is_well_formed() {
        let s = CoreStats {
            instructions: 1000,
            cycles: 2500.5,
            llc_accesses: 10,
            llc_hits: 6,
            llc_misses: 4,
            ..Default::default()
        };
        let j = s.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"instructions\":1000"));
        assert!(j.contains("\"cycles\":2500.5"));
        assert!(j.contains("\"llc_mpki\":4"));
        // Balanced braces and quotes (cheap well-formedness check).
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('"').count() % 2, 0);
    }

    #[test]
    fn summary_json_includes_all_cores() {
        let sum = crate::RunSummary {
            scheme: "S-NUCA \"LRU\"".into(),
            cores: vec![CoreStats::default(), CoreStats::default()],
            energy: crate::EnergyBreakdown::default(),
            cycles: 42,
        };
        let j = sum.to_json();
        assert!(j.contains("\\\"LRU\\\""), "quotes escaped: {j}");
        assert!(j.contains("\"cycles\":42"));
        assert_eq!(j.matches("\"instructions\"").count(), 2);
    }
}
