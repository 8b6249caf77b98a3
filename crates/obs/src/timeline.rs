//! Whirlpool-specific time series: pool-occupancy samples and the
//! reconfiguration log, serialized as JSONL.
//!
//! Both types are *data* — the simulation driver and the NUCA runtime
//! fill them by reading scheme state, never by mutating it, so enabling
//! these probes cannot perturb results. One JSON object per line; every
//! line carries a `"type"` discriminant (`pool_sample` / `reconfig`) so
//! mixed streams stay self-describing and tools can filter with grep.

use crate::json::{fmt_f64, quote};

/// Configuration of a run's observability probes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsConfig {
    /// Sample every pool's occupancy and demand once per this many
    /// processed events (across all cores).
    pub sample_every: u64,
    /// Where to write the JSONL report; `None` keeps it in memory only
    /// (read it from the run's report object).
    pub out: Option<std::path::PathBuf>,
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self {
            sample_every: 100_000,
            out: None,
        }
    }
}

impl ObsConfig {
    /// Probes sampling every `sample_every` events, report kept in memory.
    pub fn every(sample_every: u64) -> Self {
        Self {
            sample_every: sample_every.max(1),
            out: None,
        }
    }

    /// Writes the JSONL report to `path` when the run finishes.
    #[must_use]
    pub fn out(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.out = Some(path.into());
        self
    }
}

/// One pool's occupancy and cumulative demand, as read from the scheme
/// at a sampling point (cycle stamped by the driver).
#[derive(Debug, Clone, PartialEq)]
pub struct PoolOcc {
    /// Pool / VC label (e.g. `pool:vertices@core0`, `thread0`).
    pub pool: String,
    /// Granules currently allocated to the pool.
    pub granules: usize,
    /// Whether the pool is in bypass mode (zero LLC capacity).
    pub bypassed: bool,
    /// LLC-bound accesses the pool has served so far (hits + misses +
    /// bypasses).
    pub accesses: u64,
    /// Misses so far (bypasses count as misses — they go to memory).
    pub misses: u64,
}

/// One timeline entry: a [`PoolOcc`] stamped with simulated time.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolSample {
    /// Global cycle (laggard clock) at the sampling point.
    pub cycle: u64,
    /// Total events processed when the sample was taken.
    pub event: u64,
    /// The pool observation.
    pub occ: PoolOcc,
}

impl PoolSample {
    /// Cumulative miss rate (misses / accesses; 0 for an idle pool).
    pub fn miss_rate(&self) -> f64 {
        if self.occ.accesses == 0 {
            0.0
        } else {
            self.occ.misses as f64 / self.occ.accesses as f64
        }
    }

    /// One JSONL line: `{"type":"pool_sample","cycle":…,"event":…,
    /// "pool":…,"granules":…,"bypassed":…,"accesses":…,"misses":…,
    /// "miss_rate":…}`.
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"type\":\"pool_sample\",\"cycle\":{},\"event\":{},\"pool\":{},\"granules\":{},\"bypassed\":{},\"accesses\":{},\"misses\":{},\"miss_rate\":{}}}",
            self.cycle,
            self.event,
            quote(&self.occ.pool),
            self.occ.granules,
            self.occ.bypassed,
            self.occ.accesses,
            self.occ.misses,
            fmt_f64(self.miss_rate()),
        )
    }
}

/// One pool's row in a reconfiguration decision.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolChange {
    /// Pool / VC label.
    pub pool: String,
    /// Granules allocated before the decision (`None` for a pool that
    /// did not exist yet).
    pub old_granules: Option<usize>,
    /// Granules allocated after.
    pub new_granules: usize,
    /// Bypass state after.
    pub bypassed: bool,
    /// The curve signal that drove the decision: the pool's interval
    /// miss curve's accesses-per-kilo-instruction at zero capacity.
    pub apki: f64,
}

/// One runtime reallocation: every pool's old→new allocation plus the
/// triggering curve signals.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconfigEvent {
    /// Global cycle at which the reconfiguration fired.
    pub cycle: u64,
    /// 1-based reconfiguration index.
    pub index: u64,
    /// Per-pool allocation rows.
    pub pools: Vec<PoolChange>,
}

impl ReconfigEvent {
    /// One JSONL line per pool:
    /// `{"type":"reconfig","cycle":…,"index":…,"pool":…,
    /// "old_granules":…,"new_granules":…,"bypassed":…,"apki":…}`.
    /// `old_granules` is `null` for a pool new this interval.
    pub fn to_json_lines(&self) -> Vec<String> {
        self.pools
            .iter()
            .map(|p| {
                let old = match p.old_granules {
                    Some(g) => g.to_string(),
                    None => "null".to_string(),
                };
                format!(
                    "{{\"type\":\"reconfig\",\"cycle\":{},\"index\":{},\"pool\":{},\"old_granules\":{old},\"new_granules\":{},\"bypassed\":{},\"apki\":{}}}",
                    self.cycle,
                    self.index,
                    quote(&p.pool),
                    p.new_granules,
                    p.bypassed,
                    fmt_f64(p.apki),
                )
            })
            .collect()
    }
}

/// What happened to a tenant at a scenario epoch boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantEventKind {
    /// The tenant entered the system this epoch.
    Arrive,
    /// The tenant left the system this epoch.
    Depart,
    /// The tenant held a core and executed this epoch.
    Admit,
    /// The tenant was resident but no core was free.
    Wait,
    /// The tenant's SLO was violated this epoch.
    Violate,
}

impl TenantEventKind {
    /// The snake_case label used in JSONL output.
    pub fn name(self) -> &'static str {
        match self {
            TenantEventKind::Arrive => "arrive",
            TenantEventKind::Depart => "depart",
            TenantEventKind::Admit => "admit",
            TenantEventKind::Wait => "wait",
            TenantEventKind::Violate => "violate",
        }
    }
}

/// One multi-tenant scenario event, as emitted by the `wp-tenant`
/// engine's per-scheme timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantEvent {
    /// Scheme label the event occurred under.
    pub scheme: String,
    /// Scenario epoch (0-based).
    pub epoch: u64,
    /// Tenant name from the `.wps` file.
    pub tenant: String,
    /// What happened.
    pub kind: TenantEventKind,
}

impl TenantEvent {
    /// One JSONL line: `{"type":"tenant","scheme":…,"epoch":…,
    /// "tenant":…,"event":…}`.
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"type\":\"tenant\",\"scheme\":{},\"epoch\":{},\"tenant\":{},\"event\":{}}}",
            quote(&self.scheme),
            self.epoch,
            quote(&self.tenant),
            quote(self.kind.name()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_sample_line_shape() {
        let s = PoolSample {
            cycle: 123,
            event: 512,
            occ: PoolOcc {
                pool: "pool:pts@core0".into(),
                granules: 12,
                bypassed: false,
                accesses: 1000,
                misses: 250,
            },
        };
        let line = s.to_json_line();
        assert!(line.starts_with("{\"type\":\"pool_sample\""));
        assert!(line.contains("\"miss_rate\":0.25"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn reconfig_lines_flatten_per_pool() {
        let e = ReconfigEvent {
            cycle: 99,
            index: 2,
            pools: vec![
                PoolChange {
                    pool: "a".into(),
                    old_granules: Some(4),
                    new_granules: 8,
                    bypassed: false,
                    apki: 12.5,
                },
                PoolChange {
                    pool: "b".into(),
                    old_granules: None,
                    new_granules: 2,
                    bypassed: true,
                    apki: 0.0,
                },
            ],
        };
        let lines = e.to_json_lines();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"old_granules\":4"));
        assert!(lines[1].contains("\"old_granules\":null"));
        assert!(lines[1].contains("\"bypassed\":true"));
    }

    #[test]
    fn tenant_event_line_shape() {
        let e = TenantEvent {
            scheme: "Memshare".into(),
            epoch: 3,
            tenant: "t\"7\"".into(),
            kind: TenantEventKind::Wait,
        };
        let line = e.to_json_line();
        assert!(line.starts_with("{\"type\":\"tenant\""));
        assert!(line.contains("\"epoch\":3"));
        assert!(line.contains("\"event\":\"wait\""));
        assert!(line.contains("\\\"7\\\""), "tenant names escape: {line}");
        assert!(!line.contains('\n'));
    }

    #[test]
    fn obs_config_builder() {
        let c = ObsConfig::every(0);
        assert_eq!(c.sample_every, 1, "zero clamps to 1");
        let c = ObsConfig::default().out("/tmp/x.jsonl");
        assert_eq!(c.out.as_deref(), Some(std::path::Path::new("/tmp/x.jsonl")));
    }
}
