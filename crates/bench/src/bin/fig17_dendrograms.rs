//! Fig. 17: WhirlTool's hierarchical clustering (dendrograms) for dt and
//! omnetpp.

use std::collections::HashMap;

use wp_mem::{CallpointId, PageId};
use wp_whirltool::{cluster, profile, ProfilerConfig};
use wp_workloads::{registry, AppModel};

fn dendrogram(app: &str) {
    let model = AppModel::new(registry::spec(app));
    let page_map: HashMap<PageId, CallpointId> = model
        .callpoints()
        .iter()
        .flat_map(|(cp, _, pages)| pages.iter().map(move |p| (*p, *cp)))
        .collect();
    // Name callpoints by their pool for readability.
    let name_of: HashMap<CallpointId, String> = model
        .callpoints()
        .iter()
        .enumerate()
        .map(|(k, (cp, pool, _))| (*cp, format!("{}#{k}", model.spec().pools[*pool].name)))
        .collect();
    let mut trace = model.trace();
    let data = profile(
        &mut trace,
        &page_map,
        ProfilerConfig {
            interval_instrs: 2_000_000,
            total_instrs: 14_000_000,
            granule_lines: 1024,
            curve_points: 201,
        },
    );
    let tree = cluster(&data, 200);
    println!("=== {app}: {} callpoints ===", data.callpoints.len());
    for (i, m) in tree.merges.iter().enumerate() {
        let label = |c: usize| {
            if c < tree.callpoints.len() {
                name_of
                    .get(&tree.callpoints[c])
                    .cloned()
                    .unwrap_or_else(|| "unknown".into())
            } else {
                format!("cluster{}", c - tree.callpoints.len())
            }
        };
        println!(
            "  merge {i}: {:<22} + {:<22} @ distance {:>10.3}",
            label(m.left),
            label(m.right),
            m.distance
        );
    }
    // The 3-pool assignment (the colours of Fig. 17).
    let a = tree.assignment(3);
    let mut groups: HashMap<usize, Vec<String>> = HashMap::new();
    for (cp, g) in &a {
        groups
            .entry(*g)
            .or_default()
            .push(name_of.get(cp).cloned().unwrap_or_default());
    }
    let mut keys: Vec<_> = groups.keys().copied().collect();
    keys.sort_unstable();
    println!("  3-pool cut:");
    for k in keys {
        let mut v = groups[&k].clone();
        v.sort();
        println!("    pool {k}: {}", v.join(", "));
    }
    println!();
}

fn main() {
    println!("Fig 17 — WhirlTool hierarchical clustering.");
    println!("Paper: semantically-same callpoints merge at small distances; the");
    println!("3-pool cut recovers the program's data structures.\n");
    dendrogram("delaunay");
    dendrogram("omnet");
}
