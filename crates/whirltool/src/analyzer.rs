//! The WhirlTool analyzer (Sec. 4.2): distance metric + agglomerative
//! clustering of callpoints into pools.

use std::collections::HashMap;

use wp_mem::CallpointId;
use wp_mrc::{combine_miss_curves, partitioned_curve, MissCurve};

use crate::profiler::ProfileData;

/// Distance between two pools on one interval: the area between their
/// *combined* miss curve (Appendix-B flow model) and their *partitioned*
/// miss curve — "the additional misses incurred by combining the pools vs
/// partitioning them separately" (Fig. 15).
pub fn pool_distance(a: &MissCurve, b: &MissCurve, upto_granules: usize) -> f64 {
    let combined = combine_miss_curves(a, b);
    let part = partitioned_curve(a, b);
    let n = upto_granules.min(combined.len() - 1).min(part.len() - 1);
    let mut area = 0.0;
    for s in 0..n {
        let gap0 = (combined.mpki_at(s) - part.mpki_at(s)).max(0.0);
        let gap1 = (combined.mpki_at(s + 1) - part.mpki_at(s + 1)).max(0.0);
        area += 0.5 * (gap0 + gap1);
    }
    area
}

/// One merge step of the hierarchical clustering.
#[derive(Debug, Clone, PartialEq)]
pub struct Merge {
    /// Cluster ids merged (clusters `0..n` are the leaf callpoints;
    /// merge `k` creates cluster `n + k`).
    pub left: usize,
    /// Second cluster id.
    pub right: usize,
    /// Distance at which they merged.
    pub distance: f64,
}

/// The full clustering result: the dendrogram of Fig. 17.
#[derive(Debug, Clone)]
pub struct ClusterTree {
    /// Leaf callpoints, in profiler order.
    pub callpoints: Vec<CallpointId>,
    /// Merges, in increasing-distance order.
    pub merges: Vec<Merge>,
}

impl ClusterTree {
    /// The callpoint→cluster assignment with `k` pools: undo the last
    /// `k − 1` merges. Cluster labels are `0..k'` (k' ≤ k when there are
    /// fewer callpoints than requested pools).
    pub fn assignment(&self, k: usize) -> HashMap<CallpointId, usize> {
        let n = self.callpoints.len();
        let k = k.max(1);
        // Union-find over the first `n_merges - (k-1)` merges.
        let keep = self.merges.len().saturating_sub(k - 1);
        let mut parent: Vec<usize> = (0..n + self.merges.len()).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for (m, merge) in self.merges.iter().take(keep).enumerate() {
            let new = n + m;
            let l = find(&mut parent, merge.left);
            let r = find(&mut parent, merge.right);
            parent[l] = new;
            parent[r] = new;
        }
        // Relabel roots densely.
        let mut labels: HashMap<usize, usize> = HashMap::new();
        let mut out = HashMap::new();
        for (i, &cp) in self.callpoints.iter().enumerate() {
            let root = find(&mut parent, i);
            let next = labels.len();
            let label = *labels.entry(root).or_insert(next);
            out.insert(cp, label);
        }
        out
    }

    /// A text rendering of the dendrogram (Fig. 17): each merge with its
    /// distance, indented by merge order.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for (i, m) in self.merges.iter().enumerate() {
            let name = |c: usize| {
                if c < self.callpoints.len() {
                    format!("cp{:x}", self.callpoints[c].0 & 0xffff)
                } else {
                    format!("cluster{}", c - self.callpoints.len())
                }
            };
            s.push_str(&format!(
                "merge {i}: {} + {} @ distance {:.4}\n",
                name(m.left),
                name(m.right),
                m.distance
            ));
        }
        s
    }
}

/// Agglomerative clustering of profiled callpoints (Sec. 4.2).
///
/// Starts with one pool per callpoint; each iteration merges the two
/// closest pools (summed per-interval distance) and recomputes distances
/// from the merged pool's per-interval *combined* curves. `O(n²)` pair
/// maintenance, "acceptable (a few seconds) for 10s–100s of callpoints".
pub fn cluster(data: &ProfileData, upto_granules: usize) -> ClusterTree {
    let _span = wp_obs::span(wp_obs::Phase::Classify);
    let n = data.callpoints.len();
    // Per-cluster, per-interval curves (None = inactive interval).
    let mut curves: Vec<Option<Vec<Option<MissCurve>>>> = data
        .callpoints
        .iter()
        .map(|cp| {
            Some(
                data.intervals
                    .iter()
                    .map(|iv| iv.get(cp).cloned())
                    .collect(),
            )
        })
        .collect();
    let mut active: Vec<usize> = (0..n).collect();
    let mut merges = Vec::new();
    let dist = |a: &[Option<MissCurve>], b: &[Option<MissCurve>]| -> f64 {
        let mut total = 0.0;
        for (ca, cb) in a.iter().zip(b) {
            if let (Some(ca), Some(cb)) = (ca, cb) {
                total += pool_distance(ca, cb, upto_granules);
            }
            // Pools active in disjoint intervals add no distance — they
            // can share a pool without interference (Sec. 4.2).
        }
        total
    };
    while active.len() > 1 {
        // Find the closest active pair.
        let mut best = (0usize, 0usize, f64::INFINITY);
        for i in 0..active.len() {
            for j in (i + 1)..active.len() {
                let (a, b) = (active[i], active[j]);
                let d = dist(
                    curves[a].as_ref().expect("active"),
                    curves[b].as_ref().expect("active"),
                );
                if d < best.2 {
                    best = (a, b, d);
                }
            }
        }
        let (a, b, d) = best;
        // Merge b into a new cluster: per-interval combined curves.
        let ca = curves[a].take().expect("active");
        let cb = curves[b].take().expect("active");
        let merged: Vec<Option<MissCurve>> = ca
            .into_iter()
            .zip(cb)
            .map(|(x, y)| match (x, y) {
                (Some(x), Some(y)) => Some(combine_miss_curves(&x, &y)),
                (Some(x), None) => Some(x),
                (None, Some(y)) => Some(y),
                (None, None) => None,
            })
            .collect();
        let new_id = curves.len();
        curves.push(Some(merged));
        active.retain(|&x| x != a && x != b);
        active.push(new_id);
        merges.push(Merge {
            left: a,
            right: b,
            distance: d,
        });
    }
    ClusterTree {
        callpoints: data.callpoints.clone(),
        merges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geometric(apki: f64, ratio: f64, n: usize) -> MissCurve {
        MissCurve::new((0..n).map(|i| apki * ratio.powi(i as i32)).collect(), 1024)
    }

    fn flat(apki: f64, n: usize) -> MissCurve {
        MissCurve::flat(apki, n, 1024)
    }

    fn profile_of(curves: Vec<(u64, Vec<Option<MissCurve>>)>) -> ProfileData {
        let callpoints: Vec<CallpointId> = curves.iter().map(|&(id, _)| CallpointId(id)).collect();
        let n_iv = curves[0].1.len();
        let intervals = (0..n_iv)
            .map(|i| {
                curves
                    .iter()
                    .filter_map(|(id, per_iv)| per_iv[i].clone().map(|c| (CallpointId(*id), c)))
                    .collect()
            })
            .collect();
        ProfileData {
            callpoints,
            intervals,
            accesses: HashMap::new(),
        }
    }

    #[test]
    fn distance_orders_friend_vs_antagonist() {
        // Fig. 15: combining two cache-friendly pools is cheap; combining
        // a friendly pool with a streaming one is expensive.
        let friendly = geometric(20.0, 0.5, 32);
        let friendly2 = geometric(18.0, 0.55, 32);
        let streaming = flat(20.0, 32);
        let d_ff = pool_distance(&friendly, &friendly2, 32);
        let d_fs = pool_distance(&friendly, &streaming, 32);
        assert!(d_fs > 2.0 * d_ff, "friend {d_ff} vs antagonist {d_fs}");
    }

    #[test]
    fn clustering_groups_similar_callpoints() {
        // Four callpoints: two friendly (should merge first), two
        // streaming (merge next); the last merge joins the two groups.
        let f1 = geometric(20.0, 0.5, 32);
        let f2 = geometric(19.0, 0.52, 32);
        let s1 = flat(30.0, 32);
        let s2 = flat(28.0, 32);
        let data = profile_of(vec![
            (1, vec![Some(f1)]),
            (2, vec![Some(f2)]),
            (3, vec![Some(s1)]),
            (4, vec![Some(s2)]),
        ]);
        let tree = cluster(&data, 32);
        assert_eq!(tree.merges.len(), 3);
        let two = tree.assignment(2);
        assert_eq!(two[&CallpointId(1)], two[&CallpointId(2)]);
        assert_eq!(two[&CallpointId(3)], two[&CallpointId(4)]);
        assert_ne!(two[&CallpointId(1)], two[&CallpointId(3)]);
    }

    #[test]
    fn assignment_counts_match_k() {
        let data = profile_of(vec![
            (1, vec![Some(geometric(10.0, 0.5, 16))]),
            (2, vec![Some(flat(10.0, 16))]),
            (3, vec![Some(geometric(5.0, 0.9, 16))]),
        ]);
        let tree = cluster(&data, 16);
        let clusters = |k| {
            let labels: std::collections::HashSet<usize> =
                tree.assignment(k).into_values().collect();
            labels.len()
        };
        assert_eq!(clusters(1), 1);
        assert_eq!(clusters(2), 2);
        assert_eq!(clusters(3), 3);
        assert_eq!(clusters(10), 3, "capped at callpoint count");
    }

    #[test]
    fn disjoint_interval_pools_are_near() {
        // Sec. 4.2: pools accessed in non-overlapping intervals have small
        // distance even with very different patterns when active.
        let friendly = geometric(20.0, 0.5, 32);
        let streaming = flat(25.0, 32);
        // cp1 active in interval 0 only; cp2 in interval 1 only; cp3 is a
        // streaming pool active in both.
        let data = profile_of(vec![
            (1, vec![Some(friendly.clone()), None]),
            (2, vec![None, Some(streaming.clone())]),
            (3, vec![Some(streaming.clone()), Some(streaming.clone())]),
        ]);
        let tree = cluster(&data, 32);
        // First merge must be 1+2 (distance 0 — disjoint activity).
        assert_eq!(tree.merges[0].distance, 0.0);
        let first = &tree.merges[0];
        assert!((first.left == 0 && first.right == 1) || (first.left == 1 && first.right == 0));
    }

    #[test]
    fn lbm_style_phases_keep_grids_apart() {
        // Two grids that look identical on average but differ per phase
        // (Fig. 6) — summing per-interval distances must separate them
        // from a pool that is genuinely identical in every interval.
        let reuse = geometric(50.0, 0.4, 32);
        let stream = flat(50.0, 32);
        // grid1: phase A reuse, phase B stream. grid2: opposite. twin1 and
        // twin2: reuse in both phases.
        let data = profile_of(vec![
            (1, vec![Some(reuse.clone()), Some(stream.clone())]),
            (2, vec![Some(stream.clone()), Some(reuse.clone())]),
            (3, vec![Some(reuse.clone()), Some(reuse.clone())]),
            (4, vec![Some(reuse.clone()), Some(reuse.clone())]),
        ]);
        let tree = cluster(&data, 32);
        let two = tree.assignment(3);
        // The twins merge together; the two grids do NOT merge with them
        // first (each grid has a streaming phase that interferes).
        assert_eq!(two[&CallpointId(3)], two[&CallpointId(4)]);
        assert_ne!(two[&CallpointId(1)], two[&CallpointId(3)]);
    }

    #[test]
    fn render_mentions_all_merges() {
        let data = profile_of(vec![
            (1, vec![Some(geometric(10.0, 0.5, 8))]),
            (2, vec![Some(flat(5.0, 8))]),
        ]);
        let tree = cluster(&data, 8);
        let s = tree.render();
        assert!(s.contains("merge 0"));
        assert!(s.contains("distance"));
    }
}
