//! Perf-regression gate over committed `BENCH_*.json` baselines.
//!
//! Each bench smoke (`cargo bench ... -- --json`) writes a single-line
//! JSON report whose top-level `"gate"` object names the throughput
//! metrics CI guards — all oriented so that **bigger is better**
//! (speedups, events per second). [`check_pair`] compares a freshly
//! measured report against the committed baseline metric by metric and
//! flags any that fell below `baseline * (1 - max_regress)`.
//!
//! Reports are read with the workspace's one JSON parser,
//! [`wp_obs::json::parse`].

use std::fmt;
use std::path::Path;

pub use wp_obs::json::{parse, Json};

/// One gate metric compared across baseline and fresh reports.
#[derive(Debug, Clone, PartialEq)]
pub struct GateComparison {
    /// Metric name inside the `gate` object.
    pub metric: String,
    /// Committed baseline value.
    pub baseline: f64,
    /// Freshly measured value.
    pub fresh: f64,
    /// Whether the fresh value fell below the tolerance floor.
    pub regressed: bool,
}

impl GateComparison {
    /// `fresh / baseline` — above 1.0 means the fresh run was faster.
    pub fn ratio(&self) -> f64 {
        self.fresh / self.baseline
    }
}

impl fmt::Display for GateComparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<28} baseline {:>12.2}  fresh {:>12.2}  ({:+.1}%){}",
            self.metric,
            self.baseline,
            self.fresh,
            (self.ratio() - 1.0) * 100.0,
            if self.regressed { "  REGRESSED" } else { "" },
        )
    }
}

/// Extracts the `gate` object's numeric metrics from one report.
fn gate_metrics(doc: &Json, label: &str) -> Result<Vec<(String, f64)>, String> {
    let gate = doc
        .get("gate")
        .ok_or_else(|| format!("{label}: no top-level \"gate\" object"))?;
    let Json::Obj(fields) = gate else {
        return Err(format!("{label}: \"gate\" is not an object"));
    };
    let metrics: Vec<(String, f64)> = fields
        .iter()
        .filter_map(|(k, v)| v.as_f64().map(|n| (k.clone(), n)))
        .collect();
    if metrics.is_empty() {
        return Err(format!("{label}: \"gate\" has no numeric metrics"));
    }
    Ok(metrics)
}

/// Compares every gate metric of `baseline` against `fresh`.
///
/// All gate metrics are bigger-is-better; a metric regresses when
/// `fresh < baseline * (1 - max_regress)`. Metrics present in the
/// baseline but missing from the fresh report are an error (a renamed
/// gate must update its committed baseline in the same change).
pub fn check_pair(
    baseline_text: &str,
    fresh_text: &str,
    max_regress: f64,
) -> Result<Vec<GateComparison>, String> {
    let base = parse(baseline_text).map_err(|e| format!("baseline: {e}"))?;
    let fresh = parse(fresh_text).map_err(|e| format!("fresh: {e}"))?;
    let base_gate = gate_metrics(&base, "baseline")?;
    let fresh_gate = gate_metrics(&fresh, "fresh")?;
    base_gate
        .into_iter()
        .map(|(metric, baseline)| {
            let fresh = fresh_gate
                .iter()
                .find(|(k, _)| *k == metric)
                .map(|(_, v)| *v)
                .ok_or_else(|| format!("fresh report lacks gate metric \"{metric}\""))?;
            Ok(GateComparison {
                regressed: fresh < baseline * (1.0 - max_regress),
                metric,
                baseline,
                fresh,
            })
        })
        .collect()
}

/// File-level wrapper around [`check_pair`]: reads both reports and tags
/// errors with the offending path.
pub fn check_files(
    baseline: &Path,
    fresh: &Path,
    max_regress: f64,
) -> Result<Vec<GateComparison>, String> {
    let read = |p: &Path| {
        std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))
    };
    check_pair(&read(baseline)?, &read(fresh)?, max_regress)
        .map_err(|e| format!("{} vs {}: {e}", baseline.display(), fresh.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("-12.5e2").unwrap(), Json::Num(-1250.0));
        assert_eq!(
            parse("\"a\\n\\\"b\\u0041\"").unwrap(),
            Json::Str("a\n\"bA".into())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let doc = parse(r#"{"a":[1,2,{"b":null}],"c":{"d":3.5},"e":[]}"#).unwrap();
        assert_eq!(doc.get("c").unwrap().get("d").unwrap().as_f64(), Some(3.5));
        let Json::Arr(a) = doc.get("a").unwrap() else {
            panic!("a is an array");
        };
        assert_eq!(a.len(), 3);
        assert_eq!(a[2].get("b"), Some(&Json::Null));
        assert_eq!(doc.get("e"), Some(&Json::Arr(vec![])));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn parses_real_bench_report() {
        let doc = parse(
            r#"{"bench":"mrc_profile","sampled":[{"rate":0.02,"speedup":14.70}],
               "gate":{"sampled_speedup":14.70,"sampled_events_per_sec":26161247}}"#,
        )
        .unwrap();
        assert_eq!(
            doc.get("gate").unwrap().get("sampled_speedup").unwrap(),
            &Json::Num(14.70)
        );
    }

    #[test]
    fn within_tolerance_passes() {
        let base = r#"{"gate":{"speedup":5.0,"events_per_sec":1000}}"#;
        let fresh = r#"{"gate":{"speedup":4.0,"events_per_sec":990}}"#;
        let cmp = check_pair(base, fresh, 0.25).unwrap();
        assert_eq!(cmp.len(), 2);
        assert!(cmp.iter().all(|c| !c.regressed), "{cmp:?}");
    }

    #[test]
    fn regression_beyond_tolerance_flags() {
        let base = r#"{"gate":{"speedup":5.0}}"#;
        let fresh = r#"{"gate":{"speedup":3.4}}"#; // -32%
        let cmp = check_pair(base, fresh, 0.25).unwrap();
        assert!(cmp[0].regressed);
        assert!(cmp[0].ratio() < 0.75);
    }

    #[test]
    fn improvement_never_flags() {
        let base = r#"{"gate":{"speedup":5.0}}"#;
        let fresh = r#"{"gate":{"speedup":50.0}}"#;
        assert!(!check_pair(base, fresh, 0.25).unwrap()[0].regressed);
    }

    #[test]
    fn missing_gate_or_metric_errors() {
        assert!(check_pair(r#"{"bench":"x"}"#, r#"{"gate":{"a":1}}"#, 0.25).is_err());
        let base = r#"{"gate":{"renamed":1.0}}"#;
        let fresh = r#"{"gate":{"old":1.0}}"#;
        let err = check_pair(base, fresh, 0.25).unwrap_err();
        assert!(err.contains("renamed"), "{err}");
    }
}
