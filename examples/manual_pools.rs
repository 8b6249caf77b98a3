//! The mis (maximal independent set) case study of Fig. 9/10: manual
//! classification separates cache-friendly vertices from streaming edges,
//! and Whirlpool's dynamic policies give the cache to vertices while
//! bypassing edges entirely.
//!
//! ```sh
//! cargo run --release --example manual_pools
//! ```

use whirlpool_repro::harness::{exec_cycles, speedup_pct, Experiment, SchemeKind};

fn main() {
    const INSTRS: u64 = 6_000_000;
    println!("mis across all six schemes ({INSTRS} instructions each):\n");
    println!(
        "{:<12} {:>12} {:>9} {:>9} {:>9} {:>9} {:>12}",
        "scheme", "cycles", "APKI", "hits/KI", "miss/KI", "byp/KI", "energy nJ/KI"
    );
    let mut jig_cycles = 0.0;
    let mut wp_cycles = 0.0;
    for kind in SchemeKind::FIG10 {
        // Pool-aware schemes get the manual Table-2 pools by default.
        let out = Experiment::single(kind, "MIS")
            .measure(INSTRS)
            .run()
            .expect("run mis");
        let c = &out.cores[0];
        println!(
            "{:<12} {:>12.0} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>12.2}",
            out.scheme,
            c.cycles,
            c.llc_apki(),
            c.llc_hpki(),
            c.llc_mpki(),
            c.llc_bpki(),
            out.energy_per_ki(),
        );
        if kind == SchemeKind::Jigsaw {
            jig_cycles = exec_cycles(&out);
        }
        if kind == SchemeKind::Whirlpool {
            wp_cycles = exec_cycles(&out);
        }
    }
    println!(
        "\nWhirlpool over Jigsaw on mis: {:+.1}% (the paper reports +38%)",
        speedup_pct(jig_cycles, wp_cycles)
    );
    println!("\n(see fig05_dt_placement in wp-bench for the dt placement maps)");
}
