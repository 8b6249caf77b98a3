//! Fig. 9: mis's miss-rate and latency curves — vertices cache well,
//! edges stream, and with bypassing modelled (zero access latency at size
//! zero) the partitioning algorithm bypasses edges by itself.

use whirlpool_repro::harness::four_core_config;
use wp_mrc::{LatencyCurve, MissCurve, SampledStack};
use wp_noc::{CoreId, NearestBanksLatency};
use wp_sim::Workload;
use wp_workloads::{registry, AppModel};

fn main() {
    let sys = four_core_config();
    let model = AppModel::new(registry::spec("MIS"));
    let descs = model.descriptors_manual();
    let mut page_pool = wp_mrc::FastMap::default();
    for (i, d) in descs.iter().enumerate() {
        for p in &d.pages {
            page_pool.insert(p.0, i);
        }
    }
    // Sampled profiling (the edges pool is 24 MB; sampling keeps it cheap).
    let total_granules = sys.total_granules();
    let mut stacks: Vec<SampledStack> = descs
        .iter()
        .map(|_| SampledStack::new(2, 1024, total_granules + 1))
        .collect();
    let mut counts = vec![0u64; descs.len()];
    let mut trace = model.trace();
    let mut instrs = 0u64;
    while instrs < 24_000_000 {
        let ev = trace.next_event().expect("infinite");
        instrs += ev.gap_instrs as u64;
        if let Some(&i) = page_pool.get(&ev.line.page().0) {
            stacks[i].access(ev.line.0);
            counts[i] += 1;
        }
    }
    let sizes = [0usize, 16, 32, 64, 96, 128, 160, 200];
    println!("Fig 9a — mis miss-rate curves (MPKI vs LLC size; paper: edges stay flat ~95,");
    println!("          vertices fall towards 0 near the LLC size):");
    print!("{:>10}", "size(MB)");
    for &g in &sizes {
        print!("{:>9.1}", g as f64 * 64.0 / 1024.0);
    }
    println!();
    let mut curves = Vec::new();
    for (i, d) in descs.iter().enumerate() {
        let c = stacks[i]
            .take_curve(instrs)
            .unwrap_or_else(|| MissCurve::flat(0.0, total_granules + 1, 1024));
        print!("{:>10}", d.name);
        for &g in &sizes {
            print!("{:>9.2}", c.mpki_at(g));
        }
        println!();
        curves.push(c);
    }
    println!("\nFig 9b — latency curves with bypass modelled (CPI; size-0 point of a");
    println!("          bypassable VC excludes cache access latency — Sec. 3.3):");
    let center = sys.floorplan.core_coord(CoreId(0));
    for (i, d) in descs.iter().enumerate() {
        let lat = NearestBanksLatency::new(
            &sys.floorplan,
            center,
            sys.granules_per_bank(),
            sys.bank_latency,
            total_granules,
        );
        let apki = counts[i] as f64 * 1000.0 / instrs as f64;
        let lc = LatencyCurve::build(&curves[i], apki, &lat, sys.miss_penalty(), true);
        print!("{:>10}", d.name);
        for &g in &sizes {
            print!("{:>9.3}", lc.cpi_at(g));
        }
        println!();
        let opt = lc.argmin();
        println!(
            "{:>10}  optimum: {} — {}",
            "",
            if opt == 0 {
                "size 0".to_string()
            } else {
                format!("{:.1} MB", opt as f64 * 64.0 / 1024.0)
            },
            if opt == 0 {
                "BYPASS (the paper bypasses edges)"
            } else {
                "cache it (the paper gives vertices the cache)"
            }
        );
    }
}
