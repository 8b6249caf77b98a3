//! Shared helpers for the per-figure harness binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper,
//! printing the same rows/series the paper reports (normalized bars,
//! curve samples, placement maps). Run them with
//! `cargo run --release -p wp-bench --bin <name>`.
//!
//! Environment knobs:
//! * `RUN_SCALE` — multiplies every measurement budget (default 1.0;
//!   0.25 gives a quick pass for smoke-testing the harness).
//! * `N_MIXES` — number of random mixes for `fig22_mixes` (default 8;
//!   the paper uses 20).
//! * `WP_JOBS` — worker threads for the [`sweep`] engine (default: all
//!   available cores). Output is bit-identical at any job count.
//! * `WP_TRACE_CACHE` — the sweep engine's `.wpt` cache directory
//!   (default `target/wp-trace-cache`). A capture is warm exactly when
//!   its `<app>-w<warmup>-m<measure>.wpt` is there.
#![forbid(unsafe_code)]

pub mod sweep;

use whirlpool_repro::harness::{run_budget, SchemeKind};

/// The measurement budget for `app`, scaled by `RUN_SCALE`.
pub fn measure_budget(app: &str) -> u64 {
    let (_, measure) = run_budget(app);
    let scale: f64 = std::env::var("RUN_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);
    ((measure as f64 * scale) as u64).max(1_000_000)
}

/// Number of mixes to run (default 8, paper uses 20).
pub fn n_mixes() -> usize {
    std::env::var("N_MIXES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(8)
}

/// Prints a normalized bar table: rows of `(label, value)` normalized to
/// the first row (the paper's "1.0 = baseline" bar charts). An empty
/// table prints its title and nothing else (it used to panic indexing
/// `rows[0]`).
pub fn print_normalized(title: &str, rows: &[(String, f64)]) {
    let Some((base_label, base)) = rows.first() else {
        println!("\n{title}: (no rows)");
        return;
    };
    println!("\n{title} (normalized to {base_label}):");
    for (label, v) in rows {
        let norm = v / base;
        let bar = "#".repeat((norm * 40.0).round().min(80.0) as usize);
        println!("  {label:<22} {norm:>6.3}  {bar}");
    }
}

/// Geometric mean of positive values.
///
/// # Panics
///
/// Panics on an empty slice — the old behaviour silently returned `NaN`
/// from a 0/0 division, which then poisoned every downstream figure row.
pub fn gmean(values: &[f64]) -> f64 {
    assert!(
        !values.is_empty(),
        "gmean of an empty slice (no runs produced values?)"
    );
    let s: f64 = values.iter().map(|v| v.ln()).sum();
    (s / values.len() as f64).exp()
}

/// Index of `baseline` within `schemes` — the normalization row of the
/// figure tables. Looking the baseline up (instead of hard-coding its
/// index) means reordering a scheme array cannot silently normalize
/// against the wrong scheme.
///
/// # Panics
///
/// Panics if `baseline` is not in `schemes`.
pub fn baseline_position(schemes: &[SchemeKind], baseline: SchemeKind) -> usize {
    schemes
        .iter()
        .position(|&k| k == baseline)
        .unwrap_or_else(|| panic!("baseline {} is not in the scheme set", baseline.label()))
}

/// Runs the full six-scheme breakdown of Figs. 10/19/20 for one app:
/// execution time, data-movement energy split, and LLC access mix.
///
/// Passing `--json` to the binary appends one machine-readable line with
/// every scheme's full [`RunSummary`](wp_sim::RunSummary).
pub fn breakdown_figure(app: &str, paper_note: &str) {
    use whirlpool_repro::harness::{exec_cycles, Experiment};
    let measure = measure_budget(app);
    println!("{app} across the six schemes ({measure} measured instructions).");
    println!("Paper: {paper_note}\n");
    let mut time_rows = Vec::new();
    let mut energy_rows = Vec::new();
    let mut json_rows = Vec::new();
    println!(
        "{:<14} {:>12} {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8}",
        "scheme", "cycles", "hit/KI", "miss/KI", "byp/KI", "net", "bank", "mem (nJ/KI)"
    );
    for kind in SchemeKind::FIG10 {
        let out = Experiment::single(kind, app)
            .measure(measure)
            .run()
            .unwrap_or_else(|e| panic!("running '{app}' failed: {e}"));
        let c = &out.cores[0];
        let ki = c.instructions as f64 / 1000.0;
        println!(
            "{:<14} {:>12.0} {:>8.1} {:>8.2} {:>8.1} | {:>8.2} {:>8.2} {:>8.2}",
            out.scheme,
            c.cycles,
            c.llc_hpki(),
            c.llc_mpki(),
            c.llc_bpki(),
            out.energy.network_nj / ki,
            out.energy.bank_nj / ki,
            out.energy.memory_nj / ki,
        );
        time_rows.push((out.scheme.clone(), exec_cycles(&out)));
        energy_rows.push((out.scheme.clone(), out.energy_per_ki()));
        json_rows.push(out.to_json());
    }
    print_normalized("Execution time", &time_rows);
    print_normalized("Data-movement energy", &energy_rows);
    if std::env::args().any(|a| a == "--json") {
        println!(
            "\n{{\"app\":{},\"measured_instructions\":{measure},\"schemes\":[{}]}}",
            wp_obs::json::quote(app),
            json_rows.join(",")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gmean_of_equal_values() {
        assert!((gmean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn gmean_mixed() {
        let g = gmean(&[1.0, 4.0]);
        assert!((g - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "gmean of an empty slice")]
    fn gmean_empty_panics_not_nan() {
        gmean(&[]);
    }

    #[test]
    fn print_normalized_handles_empty_rows() {
        // Used to panic indexing rows[0].
        print_normalized("empty table", &[]);
    }

    #[test]
    fn baseline_found_regardless_of_order() {
        let a = [SchemeKind::SNucaLru, SchemeKind::Whirlpool];
        let b = [SchemeKind::Whirlpool, SchemeKind::SNucaLru];
        assert_eq!(baseline_position(&a, SchemeKind::Whirlpool), 1);
        assert_eq!(baseline_position(&b, SchemeKind::Whirlpool), 0);
    }

    #[test]
    #[should_panic(expected = "not in the scheme set")]
    fn missing_baseline_panics() {
        baseline_position(&[SchemeKind::SNucaLru], SchemeKind::Whirlpool);
    }

    #[test]
    fn budgets_are_positive() {
        assert!(measure_budget("delaunay") >= 1_000_000);
    }
}
