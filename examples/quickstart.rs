//! Quickstart: classify data into pools, run the same app under Jigsaw and
//! Whirlpool, and compare performance and data-movement energy.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use whirlpool::PoolAllocator;
use whirlpool_repro::harness::{exec_cycles, speedup_pct, Experiment, SchemeKind};

fn main() {
    // --- The Whirlpool programmer API (Sec. 3.1) -------------------------
    // Porting an app is a handful of lines: one pool per major structure.
    let mut alloc = PoolAllocator::new();
    let points = alloc.pool_create("points");
    let vertices = alloc.pool_create("vertices");
    let triangles = alloc.pool_create("triangles");
    let _p = alloc.pool_malloc(512 * 1024, points);
    let _v = alloc.pool_malloc(3 * 512 * 1024, vertices);
    let _t = alloc.pool_malloc(4 * 1024 * 1024, triangles);
    println!("created {} pools:", alloc.descriptors().len());
    for d in alloc.descriptors() {
        println!(
            "  {:>10}: {:>5} KB across {} pages",
            d.name,
            d.bytes / 1024,
            d.pages.len()
        );
    }

    // --- Running dt under Jigsaw vs Whirlpool (Sec. 2.1) -----------------
    const INSTRS: u64 = 8_000_000;
    println!("\nrunning dt (Delaunay triangulation) for {INSTRS} instructions...");
    // Each scheme gets its default classification: none for Jigsaw, the
    // manual Table-2 pools for Whirlpool.
    let run = |kind| {
        Experiment::single(kind, "delaunay")
            .measure(INSTRS)
            .run()
            .expect("run dt")
    };
    let jig = run(SchemeKind::Jigsaw);
    let wp = run(SchemeKind::Whirlpool);

    println!(
        "\n{:<12} {:>12} {:>10} {:>10} {:>12}",
        "scheme", "cycles", "LLC APKI", "MPKI", "energy nJ/KI"
    );
    for s in [&jig, &wp] {
        println!(
            "{:<12} {:>12.0} {:>10.1} {:>10.2} {:>12.2}",
            s.scheme,
            s.cores[0].cycles,
            s.cores[0].llc_apki(),
            s.cores[0].llc_mpki(),
            s.energy_per_ki(),
        );
    }
    println!(
        "\nWhirlpool speedup over Jigsaw: {:+.1}%  |  energy: {:+.1}%",
        speedup_pct(exec_cycles(&jig), exec_cycles(&wp)),
        (wp.energy_per_ki() / jig.energy_per_ki() - 1.0) * 100.0,
    );
}
