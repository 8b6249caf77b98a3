//! Figs. 3–5: where S-NUCA, Jigsaw, and Whirlpool place dt's data, plus
//! the headline dt numbers (paper: Whirlpool +19% vs S-NUCA, +15% vs
//! Jigsaw; data-movement energy −42% vs S-NUCA, −27% vs Jigsaw).

use whirlpool_repro::harness::*;
use wp_bench::measure_budget;
use wp_sim::LlcScheme;

fn run_and_map(kind: SchemeKind) -> (f64, f64, Vec<(usize, String, f64)>) {
    let sys = four_core_config();
    let (run, scheme) = Experiment::single(kind, "delaunay")
        .measure(measure_budget("delaunay"))
        .system(sys.clone())
        .run_with_scheme(make_scheme(kind, &sys))
        .unwrap_or_else(|e| panic!("dt under {} failed: {e}", kind.label()));
    (
        exec_cycles(&run.summary),
        run.summary.energy_per_ki(),
        scheme.bank_occupancy(),
    )
}

fn main() {
    let sys = four_core_config();
    let mut results = Vec::new();
    for kind in [
        SchemeKind::SNucaLru,
        SchemeKind::Jigsaw,
        SchemeKind::Whirlpool,
    ] {
        let (cycles, energy, occ) = run_and_map(kind);
        println!("=== {} ===", kind.label());
        println!("{}", render_occupancy(&sys, &occ));
        results.push((kind.label(), cycles, energy));
    }
    println!("dt headline numbers (paper: W +19%/+15% perf, -42%/-27% energy):");
    let (_, s_cyc, s_e) = results[0];
    let (_, j_cyc, j_e) = results[1];
    let (_, w_cyc, w_e) = results[2];
    println!(
        "  Whirlpool vs S-NUCA: {:+.1}% perf, {:+.1}% energy",
        speedup_pct(s_cyc, w_cyc),
        (w_e / s_e - 1.0) * 100.0
    );
    println!(
        "  Whirlpool vs Jigsaw: {:+.1}% perf, {:+.1}% energy",
        speedup_pct(j_cyc, w_cyc),
        (w_e / j_e - 1.0) * 100.0
    );
}
