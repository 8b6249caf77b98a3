//! The `.wps` scenario format: a self-describing JSON document listing
//! the tenant set (app, weight, optional SLO) and the epoch-granular
//! churn trace that drives arrivals and departures.
//!
//! Parsing goes through the workspace's one JSON parser,
//! [`wp_obs::json::parse`] (no external deps), and every defect —
//! malformed JSON, unknown keys, ill-typed fields, negative times,
//! inconsistent churn windows — maps to a one-line [`HarnessError::Scenario`], so the CLI and daemon
//! render identical messages.
//!
//! Churn is deterministic: tenants that do not pin `arrival`/`departure`
//! get both synthesized from the scenario `seed` with splitmix64, so the
//! same file always describes the same timeline on every machine.

use whirlpool_repro::harness::{resolve_app, HarnessError};
use wp_obs::json::{parse, Json};

/// A tenant's service-level objective, checked once per admitted epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SloTarget {
    /// The epoch's LLC miss ratio (misses + bypasses over accesses +
    /// bypasses) must stay at or below this bound.
    MaxMissRatio(f64),
    /// The epoch's IPC normalized to the tenant's alone-run IPC under
    /// the same scheme must stay at or above this bound.
    MinNormIpc(f64),
}

/// One tenant: a workload plus its weight, SLO, and residency window.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Unique tenant name (used in reports and timelines).
    pub name: String,
    /// Registry benchmark or `trace:<path>` URI.
    pub app: String,
    /// Relative importance in the weighted-speedup metric (> 0).
    pub weight: f64,
    /// Optional service-level objective.
    pub slo: Option<SloTarget>,
    /// First epoch the tenant is resident (0-based, inclusive).
    pub arrival: u64,
    /// First epoch the tenant is gone (exclusive; ≤ `epochs`).
    pub departure: u64,
}

/// A parsed, validated multi-tenant scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (reported verbatim).
    pub name: String,
    /// Seed for churn synthesis and per-epoch experiment seeds.
    pub seed: u64,
    /// Chip size: 4 or 16 cores.
    pub cores: usize,
    /// Number of scheduling epochs.
    pub epochs: u64,
    /// Fixed-work measurement budget per core per epoch.
    pub epoch_instrs: u64,
    /// Per-epoch warmup budget (also used for the alone baselines).
    pub warmup_instrs: u64,
    /// The tenant set, in file order.
    pub tenants: Vec<TenantSpec>,
}

/// Default per-epoch warmup when the file does not set `warmup_instrs`.
pub const DEFAULT_WARMUP_INSTRS: u64 = 200_000;

fn err(msg: impl Into<String>) -> HarnessError {
    HarnessError::Scenario(msg.into())
}

/// The splitmix64 mixer — the repo's stock deterministic hash.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A non-negative integer field (rejects fractions, negatives, and
/// anything past 2^53 where `f64` stops being exact).
fn as_u64(v: &Json, what: &str) -> Result<u64, HarnessError> {
    match v {
        Json::Num(n) => {
            if *n < 0.0 {
                Err(err(format!("'{what}' must be non-negative (got {n})")))
            } else if n.fract() != 0.0 || *n > 9_007_199_254_740_992.0 {
                Err(err(format!("'{what}' must be an integer (got {n})")))
            } else {
                Ok(*n as u64)
            }
        }
        _ => Err(err(format!("'{what}' must be a number"))),
    }
}

fn as_str<'j>(v: &'j Json, what: &str) -> Result<&'j str, HarnessError> {
    v.as_str()
        .ok_or_else(|| err(format!("'{what}' must be a string")))
}

fn fields<'j>(v: &'j Json, what: &str) -> Result<&'j [(String, Json)], HarnessError> {
    match v {
        Json::Obj(fields) => Ok(fields),
        _ => Err(err(format!("{what} must be a JSON object"))),
    }
}

fn reject_unknown_keys(
    fields: &[(String, Json)],
    allowed: &[&str],
    what: &str,
) -> Result<(), HarnessError> {
    for (k, _) in fields {
        if !allowed.contains(&k.as_str()) {
            return Err(err(format!(
                "unknown {what} key '{k}' (allowed: {})",
                allowed.join(", ")
            )));
        }
    }
    Ok(())
}

fn parse_slo(v: &Json, tenant: &str) -> Result<SloTarget, HarnessError> {
    let f = fields(v, &format!("tenant '{tenant}' slo"))?;
    reject_unknown_keys(f, &["max_miss_ratio", "min_norm_ipc"], "slo")?;
    let miss = v.get("max_miss_ratio");
    let ipc = v.get("min_norm_ipc");
    match (miss, ipc) {
        (Some(m), None) => {
            let m = m
                .as_f64()
                .ok_or_else(|| err(format!("tenant '{tenant}' max_miss_ratio must be a number")))?;
            if m > 0.0 && m <= 1.0 {
                Ok(SloTarget::MaxMissRatio(m))
            } else {
                Err(err(format!(
                    "tenant '{tenant}' max_miss_ratio must be in (0, 1] (got {m})"
                )))
            }
        }
        (None, Some(i)) => {
            let i = i
                .as_f64()
                .ok_or_else(|| err(format!("tenant '{tenant}' min_norm_ipc must be a number")))?;
            if i > 0.0 && i.is_finite() {
                Ok(SloTarget::MinNormIpc(i))
            } else {
                Err(err(format!(
                    "tenant '{tenant}' min_norm_ipc must be positive and finite (got {i})"
                )))
            }
        }
        _ => Err(err(format!(
            "tenant '{tenant}' slo must set exactly one of max_miss_ratio / min_norm_ipc"
        ))),
    }
}

impl Scenario {
    /// Reads and validates a `.wps` file.
    ///
    /// # Errors
    ///
    /// [`HarnessError::Scenario`] for unreadable files and every schema
    /// defect; [`HarnessError::UnknownApp`] for apps outside the
    /// registry.
    pub fn load(path: &std::path::Path) -> Result<Scenario, HarnessError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| err(format!("cannot read scenario '{}': {e}", path.display())))?;
        Scenario::from_json_str(&text)
    }

    /// Parses and validates a `.wps` document from memory.
    ///
    /// # Errors
    ///
    /// Same contract as [`Scenario::load`].
    pub fn from_json_str(text: &str) -> Result<Scenario, HarnessError> {
        let doc = parse(text).map_err(|e| err(format!("malformed scenario JSON: {e}")))?;
        let top = fields(&doc, "a scenario")?;
        reject_unknown_keys(
            top,
            &[
                "name",
                "seed",
                "cores",
                "epochs",
                "epoch_instrs",
                "warmup_instrs",
                "tenants",
            ],
            "scenario",
        )?;
        let name = as_str(
            doc.get("name")
                .ok_or_else(|| err("scenario needs a 'name'"))?,
            "name",
        )?
        .to_string();
        if name.is_empty() {
            return Err(err("scenario 'name' must be non-empty"));
        }
        let seed = as_u64(
            doc.get("seed")
                .ok_or_else(|| err("scenario needs a 'seed'"))?,
            "seed",
        )?;
        let cores = as_u64(
            doc.get("cores")
                .ok_or_else(|| err("scenario needs 'cores' (4 or 16)"))?,
            "cores",
        )?;
        if cores != 4 && cores != 16 {
            return Err(err(format!("'cores' must be 4 or 16 (got {cores})")));
        }
        let epochs = as_u64(
            doc.get("epochs")
                .ok_or_else(|| err("scenario needs 'epochs'"))?,
            "epochs",
        )?;
        if epochs == 0 {
            return Err(err("'epochs' must be at least 1"));
        }
        let epoch_instrs = as_u64(
            doc.get("epoch_instrs")
                .ok_or_else(|| err("scenario needs 'epoch_instrs'"))?,
            "epoch_instrs",
        )?;
        if epoch_instrs == 0 {
            return Err(err("'epoch_instrs' must be positive"));
        }
        let warmup_instrs = match doc.get("warmup_instrs") {
            Some(v) => as_u64(v, "warmup_instrs")?,
            None => DEFAULT_WARMUP_INSTRS,
        };
        let tenant_rows = match doc.get("tenants") {
            Some(Json::Arr(rows)) if !rows.is_empty() => rows,
            Some(Json::Arr(_)) => return Err(err("'tenants' must list at least one tenant")),
            _ => return Err(err("scenario needs a 'tenants' array")),
        };

        let mut tenants = Vec::with_capacity(tenant_rows.len());
        for (i, row) in tenant_rows.iter().enumerate() {
            tenants.push(parse_tenant(row, i, seed, epochs)?);
        }
        validate_tenant_set(&tenants, epochs)?;

        Ok(Scenario {
            name,
            seed,
            cores: cores as usize,
            epochs,
            epoch_instrs,
            warmup_instrs,
            tenants,
        })
    }

    /// The distinct apps the scenario touches, in first-seen order —
    /// the work-list for the alone-run baseline grid.
    pub fn distinct_apps(&self) -> Vec<&str> {
        let mut seen: Vec<&str> = Vec::new();
        for t in &self.tenants {
            if !seen.contains(&t.app.as_str()) {
                seen.push(&t.app);
            }
        }
        seen
    }
}

fn parse_tenant(
    row: &Json,
    index: usize,
    seed: u64,
    epochs: u64,
) -> Result<TenantSpec, HarnessError> {
    let f = fields(row, &format!("tenant #{index}"))?;
    reject_unknown_keys(
        f,
        &["name", "app", "weight", "slo", "arrival", "departure"],
        "tenant",
    )?;
    let name = as_str(
        row.get("name")
            .ok_or_else(|| err(format!("tenant #{index} needs a 'name'")))?,
        &format!("tenant #{index} name"),
    )?
    .to_string();
    if name.is_empty() {
        return Err(err(format!("tenant #{index} 'name' must be non-empty")));
    }
    let app = as_str(
        row.get("app")
            .ok_or_else(|| err(format!("tenant '{name}' needs an 'app'")))?,
        &format!("tenant '{name}' app"),
    )?
    .to_string();
    resolve_app(&app)?;
    let weight = match row.get("weight") {
        Some(v) => v
            .as_f64()
            .ok_or_else(|| err(format!("tenant '{name}' weight must be a number")))?,
        None => 1.0,
    };
    // `is_finite` also rejects NaN, so `<= 0.0` covers the rest.
    if weight <= 0.0 || !weight.is_finite() {
        return Err(err(format!(
            "tenant '{name}' weight must be positive and finite (got {weight})"
        )));
    }
    let slo = match row.get("slo") {
        Some(v) => Some(parse_slo(v, &name)?),
        None => None,
    };
    let (arrival, departure) = match (row.get("arrival"), row.get("departure")) {
        (Some(a), Some(d)) => {
            let a = as_u64(a, &format!("tenant '{name}' arrival"))?;
            let d = as_u64(d, &format!("tenant '{name}' departure"))?;
            if d <= a {
                return Err(err(format!(
                    "tenant '{name}' departs at epoch {d}, not after its arrival at {a}"
                )));
            }
            if d > epochs {
                return Err(err(format!(
                    "tenant '{name}' departure {d} exceeds the scenario's {epochs} epochs"
                )));
            }
            (a, d)
        }
        (None, None) => synth_window(seed, index as u64, epochs),
        _ => {
            return Err(err(format!(
                "tenant '{name}' must set both 'arrival' and 'departure', or neither"
            )));
        }
    };
    Ok(TenantSpec {
        name,
        app,
        weight,
        slo,
        arrival,
        departure,
    })
}

/// Deterministic churn synthesis: tenant `index` of a scenario with
/// `seed` always gets the same residency window, derived with splitmix64
/// so adjacent indices decorrelate.
fn synth_window(seed: u64, index: u64, epochs: u64) -> (u64, u64) {
    let r1 = splitmix64(seed ^ splitmix64(index.wrapping_mul(2)));
    let r2 = splitmix64(seed ^ splitmix64(index.wrapping_mul(2) + 1));
    let arrival = r1 % epochs;
    let duration = 1 + r2 % (epochs - arrival);
    (arrival, arrival + duration)
}

fn validate_tenant_set(tenants: &[TenantSpec], epochs: u64) -> Result<(), HarnessError> {
    for (i, a) in tenants.iter().enumerate() {
        for b in &tenants[i + 1..] {
            if a.name == b.name {
                return Err(err(format!("duplicate tenant name '{}'", a.name)));
            }
            // Two tenants replaying the same trace file would share an
            // address space when co-resident; mix_bundle's 1 TB spacing
            // separates registry apps but identical trace URIs collide.
            if a.app.starts_with("trace:") && a.app == b.app {
                return Err(err(format!(
                    "tenants '{}' and '{}' replay the same trace URI '{}' (overlapping address spaces)",
                    a.name, b.name, a.app
                )));
            }
        }
        debug_assert!(a.arrival < a.departure && a.departure <= epochs);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal(extra_tenant_fields: &str) -> String {
        format!(
            r#"{{"name":"t","seed":7,"cores":4,"epochs":8,"epoch_instrs":100000,
                "tenants":[{{"name":"a","app":"delaunay"{extra_tenant_fields}}}]}}"#
        )
    }

    #[test]
    fn minimal_scenario_parses_with_synthesized_churn() {
        let s = Scenario::from_json_str(&minimal("")).unwrap();
        assert_eq!(s.name, "t");
        assert_eq!(s.warmup_instrs, DEFAULT_WARMUP_INSTRS);
        let t = &s.tenants[0];
        assert!(t.arrival < t.departure && t.departure <= s.epochs);
        assert_eq!(t.weight, 1.0);
        assert!(t.slo.is_none());
        // Same file, same windows — churn is a pure function of the seed.
        let again = Scenario::from_json_str(&minimal("")).unwrap();
        assert_eq!(s, again);
    }

    #[test]
    fn explicit_windows_and_slos_parse() {
        let s = Scenario::from_json_str(&minimal(
            r#","arrival":2,"departure":6,"weight":2.5,"slo":{"max_miss_ratio":0.4}"#,
        ))
        .unwrap();
        let t = &s.tenants[0];
        assert_eq!((t.arrival, t.departure), (2, 6));
        assert_eq!(t.slo, Some(SloTarget::MaxMissRatio(0.4)));
    }

    #[test]
    fn malformed_scenarios_are_one_line_scenario_errors() {
        let cases: &[(&str, &str)] = &[
            ("{\"name\":", "malformed scenario JSON"),
            ("[1,2]", "must be a JSON object"),
            (r#"{"name":"x","bogus":1}"#, "unknown scenario key 'bogus'"),
            (&minimal(r#","arrival":-1,"departure":3"#), "non-negative"),
            (&minimal(r#","arrival":1.5,"departure":3"#), "integer"),
            (
                &minimal(r#","arrival":5,"departure":3"#),
                "not after its arrival",
            ),
            (&minimal(r#","arrival":5,"departure":99"#), "exceeds"),
            (
                &minimal(r#","arrival":5"#),
                "both 'arrival' and 'departure'",
            ),
            (&minimal(r#","weight":0"#), "positive"),
            (&minimal(r#","slo":{}"#), "exactly one"),
            (
                &minimal(r#","slo":{"max_miss_ratio":0.1,"min_norm_ipc":0.5}"#),
                "exactly one",
            ),
            (&minimal(r#","slo":{"max_miss_ratio":1.7}"#), "(0, 1]"),
        ];
        for (text, needle) in cases {
            match Scenario::from_json_str(text) {
                Err(HarnessError::Scenario(msg)) => {
                    assert!(msg.contains(needle), "{msg:?} should mention {needle:?}");
                    assert!(!msg.contains('\n'), "one line: {msg:?}");
                }
                other => panic!("expected Scenario error containing {needle:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn unknown_apps_keep_the_did_you_mean_contract() {
        let text = minimal("").replace("delaunay", "delauny");
        match Scenario::from_json_str(&text) {
            Err(HarnessError::UnknownApp { name, suggestion }) => {
                assert_eq!(name, "delauny");
                assert_eq!(suggestion.as_deref(), Some("delaunay"));
            }
            other => panic!("expected UnknownApp, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_names_and_trace_uris_are_rejected() {
        let dup = r#"{"name":"t","seed":1,"cores":4,"epochs":4,"epoch_instrs":1000,
            "tenants":[{"name":"a","app":"delaunay"},{"name":"a","app":"mcf"}]}"#;
        assert!(matches!(
            Scenario::from_json_str(dup),
            Err(HarnessError::Scenario(m)) if m.contains("duplicate tenant name")
        ));
        let shared = r#"{"name":"t","seed":1,"cores":4,"epochs":4,"epoch_instrs":1000,
            "tenants":[{"name":"a","app":"trace:/tmp/x.wpt"},{"name":"b","app":"trace:/tmp/x.wpt"}]}"#;
        assert!(matches!(
            Scenario::from_json_str(shared),
            Err(HarnessError::Scenario(m)) if m.contains("overlapping address spaces")
        ));
    }

    #[test]
    fn distinct_apps_keeps_first_seen_order() {
        let s = Scenario::from_json_str(
            r#"{"name":"t","seed":1,"cores":4,"epochs":4,"epoch_instrs":1000,
            "tenants":[{"name":"a","app":"mcf"},{"name":"b","app":"delaunay"},
                       {"name":"c","app":"mcf"}]}"#,
        )
        .unwrap();
        assert_eq!(s.distinct_apps(), vec!["mcf", "delaunay"]);
    }
}
