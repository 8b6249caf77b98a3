//! Application models: pools + phases → an allocated address space and an
//! LLC-bound access trace.

use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wp_mem::{CallpointId, Heap, LineAddr, PageId, PoolId, LINE_BYTES};
use wp_sim::{PoolDescriptor, TraceEvent, Workload, WorkloadBundle};

use crate::pattern::{Pattern, PatternState};

/// One pool (data structure) of an application model.
#[derive(Debug, Clone)]
pub struct PoolSpec {
    /// Data-structure name ("points", "edges", …).
    pub name: &'static str,
    /// Footprint in bytes.
    pub bytes: u64,
    /// Default access pattern.
    pub pattern: Pattern,
    /// Number of distinct allocation callpoints producing this pool
    /// (WhirlTool clusters these; semantically-same data usually comes
    /// from 1–3 sites).
    pub callpoints: usize,
    /// Whether the manual port tags this pool (untagged data stays in the
    /// thread VC under Whirlpool's manual classification).
    pub tagged: bool,
}

impl PoolSpec {
    /// A tagged single-callpoint pool.
    pub fn new(name: &'static str, bytes: u64, pattern: Pattern) -> Self {
        Self {
            name,
            bytes,
            pattern,
            callpoints: 1,
            tagged: true,
        }
    }

    /// Same, allocated from `n` callpoints.
    pub fn with_callpoints(mut self, n: usize) -> Self {
        self.callpoints = n.max(1);
        self
    }

    /// Marks the pool untagged (not part of the manual classification).
    pub fn untagged(mut self) -> Self {
        self.tagged = false;
        self
    }
}

/// One pool's share of a phase's accesses.
#[derive(Debug, Clone, Copy)]
pub struct PoolMix {
    /// Pool index into [`AppSpec::pools`].
    pub pool: usize,
    /// Relative access weight within the phase.
    pub weight: f64,
    /// Pattern override for this phase (`None` keeps the pool's default).
    pub pattern: Option<Pattern>,
}

impl PoolMix {
    /// A weight-only mix entry.
    pub fn new(pool: usize, weight: f64) -> Self {
        Self {
            pool,
            weight,
            pattern: None,
        }
    }

    /// Adds a per-phase pattern override (refine's inversions, Fig. 11).
    pub fn with_pattern(mut self, p: Pattern) -> Self {
        self.pattern = Some(p);
        self
    }
}

/// A program phase: an access mix active for a stretch of instructions.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Phase length in instructions.
    pub duration_instrs: u64,
    /// Access mix (weights need not sum to anything particular).
    pub mix: Vec<PoolMix>,
}

/// A complete application model.
#[derive(Debug, Clone)]
pub struct AppSpec {
    /// Benchmark name ("delaunay", "lbm", …).
    pub name: &'static str,
    /// The pools.
    pub pools: Vec<PoolSpec>,
    /// Phases, cycled forever. A single phase = steady-state behaviour.
    pub phases: Vec<Phase>,
    /// Target LLC accesses per kilo-instruction (the paper's APKI scale).
    pub apki: f64,
    /// Relative jitter on phase durations (refine's "irregular intervals"):
    /// each phase instance lasts `duration × U[1-j, 1+j]`.
    pub phase_jitter: f64,
    /// Trace seed.
    pub seed: u64,
}

impl AppSpec {
    /// A steady-state app: one phase with the given weights.
    pub fn steady(
        name: &'static str,
        pools: Vec<PoolSpec>,
        weights: &[f64],
        apki: f64,
        seed: u64,
    ) -> Self {
        assert_eq!(pools.len(), weights.len());
        let mix = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| PoolMix::new(i, w))
            .collect();
        Self {
            name,
            pools,
            phases: vec![Phase {
                duration_instrs: u64::MAX,
                mix,
            }],
            apki,
            phase_jitter: 0.0,
            seed,
        }
    }

    /// Scales every pool's footprint by `factor` (input-set scaling; the
    /// train/ref sensitivity study of Fig. 18).
    pub fn scaled(mut self, factor: f64) -> Self {
        for p in &mut self.pools {
            p.bytes = ((p.bytes as f64 * factor) as u64).max(wp_mem::PAGE_BYTES);
        }
        self
    }

    /// Total footprint in bytes.
    pub fn footprint(&self) -> u64 {
        self.pools.iter().map(|p| p.bytes).sum()
    }
}

/// Address-space layout of one pool: its extents in line space.
#[derive(Debug, Clone)]
struct PoolLayout {
    /// `(first_line, lines)` per extent, with cumulative index offsets.
    extents: Vec<(u64, u64)>,
    cumulative: Vec<u64>,
    total_lines: u64,
    pool_id: PoolId,
    pages: Vec<PageId>,
}

impl PoolLayout {
    fn line_at(&self, index: u64) -> LineAddr {
        debug_assert!(index < self.total_lines);
        // Binary search the cumulative offsets.
        let ext = match self.cumulative.binary_search(&index) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        let (start, _) = self.extents[ext];
        LineAddr(start + (index - self.cumulative[ext]))
    }
}

/// An instantiated application model: allocated memory + trace factory.
#[derive(Debug)]
pub struct AppModel {
    spec: AppSpec,
    layouts: Arc<Vec<PoolLayout>>,
    /// Callpoint → (pool index, pages).
    callpoints: Vec<(CallpointId, usize, Vec<PageId>)>,
}

impl AppModel {
    /// Instantiates the model: allocates every pool through a pool-aware
    /// heap (so page-exclusivity and callpoint recording are the real
    /// allocator's, not faked).
    pub fn new(spec: AppSpec) -> Self {
        Self::new_with_base(spec, 16)
    }

    /// Instantiates the model in an address space starting at `base_page`.
    /// Multi-program mixes give each process a disjoint region (as real
    /// virtual memory does) so pages never collide across cores.
    pub fn new_with_base(spec: AppSpec, base_page: u64) -> Self {
        let mut heap = Heap::with_base_page(base_page);
        let mut layouts = Vec::with_capacity(spec.pools.len());
        let mut callpoints = Vec::new();
        let app_hash = {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in spec.name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            h
        };
        for (pi, pool) in spec.pools.iter().enumerate() {
            let pool_id = heap.create_pool();
            let chunks = pool.callpoints.max(1) as u64;
            let chunk_bytes = (pool.bytes / chunks).max(LINE_BYTES);
            let mut extents = Vec::new();
            let mut cumulative = Vec::new();
            let mut total = 0u64;
            for c in 0..chunks {
                let cp = CallpointId::from_return_pcs(
                    app_hash ^ (pi as u64) << 20,
                    0x40_0000 + (pi as u64) * 0x100 + c,
                );
                let bytes = if c == chunks - 1 {
                    pool.bytes - chunk_bytes * (chunks - 1)
                } else {
                    chunk_bytes
                };
                let addr = heap.pool_malloc(bytes.max(LINE_BYTES), pool_id, cp);
                let first_line = addr.line().0;
                let lines = bytes.max(LINE_BYTES) / LINE_BYTES;
                cumulative.push(total);
                extents.push((first_line, lines));
                total += lines;
                // Pages of this chunk (for WhirlTool's callpoint→pages map).
                let first_page = addr.page().0;
                let last_page = addr.offset(bytes.saturating_sub(1)).page().0;
                let pages: Vec<PageId> = (first_page..=last_page).map(PageId).collect();
                callpoints.push((cp, pi, pages));
            }
            let pages = heap.pages_of_pool(pool_id).to_vec();
            layouts.push(PoolLayout {
                extents,
                cumulative,
                total_lines: total,
                pool_id,
                pages,
            });
        }
        Self {
            spec,
            layouts: Arc::new(layouts),
            callpoints,
        }
    }

    /// The spec this model instantiates.
    pub fn spec(&self) -> &AppSpec {
        &self.spec
    }

    /// Manual classification: one descriptor per tagged pool (Table 2).
    pub fn descriptors_manual(&self) -> Vec<PoolDescriptor> {
        self.spec
            .pools
            .iter()
            .zip(self.layouts.iter())
            .filter(|(p, _)| p.tagged)
            .map(|(p, l)| PoolDescriptor {
                name: p.name.to_string(),
                pool: Some(l.pool_id),
                pages: l.pages.clone(),
                bytes: p.bytes,
            })
            .collect()
    }

    /// Callpoint map: `(callpoint, pool index, pages)` per allocation site.
    pub fn callpoints(&self) -> &[(CallpointId, usize, Vec<PageId>)] {
        &self.callpoints
    }

    /// Classification from a callpoint→cluster map (WhirlTool's output):
    /// descriptors group the pages of all callpoints in each cluster.
    pub fn descriptors_from_clusters(
        &self,
        assignment: &HashMap<CallpointId, usize>,
    ) -> Vec<PoolDescriptor> {
        let mut groups: HashMap<usize, Vec<PageId>> = HashMap::new();
        for (cp, _, pages) in &self.callpoints {
            if let Some(&g) = assignment.get(cp) {
                groups.entry(g).or_default().extend(pages.iter().copied());
            }
        }
        let mut keys: Vec<usize> = groups.keys().copied().collect();
        keys.sort_unstable();
        keys.into_iter()
            .map(|g| {
                let pages = groups.remove(&g).expect("key exists");
                PoolDescriptor {
                    name: format!("cluster{g}"),
                    pool: Some(PoolId(1000 + g as u32)),
                    bytes: pages.len() as u64 * wp_mem::PAGE_BYTES,
                    pages,
                }
            })
            .collect()
    }

    /// Builds a workload bundle with the given classification descriptors
    /// (empty = unclassified, for Jigsaw and the other baselines).
    pub fn bundle(&self, pools: Vec<PoolDescriptor>) -> WorkloadBundle {
        WorkloadBundle {
            trace: Box::new(self.trace()),
            pools,
            name: self.spec.name.to_string(),
        }
    }

    /// An infinite, deterministic LLC-bound trace of this app.
    pub fn trace(&self) -> AppTrace {
        AppTrace::new(self.spec.clone(), Arc::clone(&self.layouts), self.spec.seed)
    }

    /// A trace with a different seed (per-core variation in mixes).
    pub fn trace_seeded(&self, seed: u64) -> AppTrace {
        AppTrace::new(self.spec.clone(), Arc::clone(&self.layouts), seed)
    }
}

/// The trace generator for one run of an [`AppModel`].
pub struct AppTrace {
    spec: AppSpec,
    layouts: Arc<Vec<PoolLayout>>,
    patterns: Vec<PatternState>,
    rng: StdRng,
    phase_idx: usize,
    phase_left: u64,
    /// Cumulative weights of the current mix.
    cum_weights: Vec<f64>,
    gap_base: f64,
    carry: f64,
}

impl std::fmt::Debug for AppTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppTrace")
            .field("app", &self.spec.name)
            .field("phase", &self.phase_idx)
            .finish()
    }
}

impl AppTrace {
    fn new(spec: AppSpec, layouts: Arc<Vec<PoolLayout>>, seed: u64) -> Self {
        let rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let patterns = spec
            .pools
            .iter()
            .zip(layouts.iter())
            .enumerate()
            .map(|(i, (p, l))| {
                PatternState::new(p.pattern, l.total_lines, seed.wrapping_add(i as u64 * 77))
            })
            .collect();
        let gap_base = 1000.0 / spec.apki;
        let mut t = Self {
            spec,
            layouts,
            patterns,
            rng,
            phase_idx: 0,
            phase_left: 0,
            cum_weights: Vec::new(),
            gap_base,
            carry: 0.0,
        };
        t.enter_phase(0);
        t
    }

    fn enter_phase(&mut self, idx: usize) {
        self.phase_idx = idx % self.spec.phases.len();
        let jitter = self.spec.phase_jitter;
        let phase = self.spec.phases[self.phase_idx].clone();
        let scale = if jitter > 0.0 {
            1.0 + self.rng.gen_range(-jitter..jitter)
        } else {
            1.0
        };
        self.phase_left = (phase.duration_instrs as f64 * scale) as u64;
        self.cum_weights.clear();
        let mut acc = 0.0;
        for m in &phase.mix {
            acc += m.weight.max(0.0);
            self.cum_weights.push(acc);
            let pat = m.pattern.unwrap_or(self.spec.pools[m.pool].pattern);
            self.patterns[m.pool].set_pattern(pat);
        }
    }

    fn pick_pool(&mut self) -> usize {
        let total = *self.cum_weights.last().expect("non-empty mix");
        let x = self.rng.gen_range(0.0..total);
        let slot = self
            .cum_weights
            .iter()
            .position(|&c| x < c)
            .unwrap_or(self.cum_weights.len() - 1);
        self.spec.phases[self.phase_idx].mix[slot].pool
    }
}

impl Workload for AppTrace {
    fn next_event(&mut self) -> Option<TraceEvent> {
        // Gap: deterministic accumulator hitting the APKI target exactly
        // in expectation, with ±30% jitter for realism.
        let jitter = self.rng.gen_range(0.7..1.3);
        let gap_f = self.gap_base * jitter + self.carry;
        let gap = gap_f.floor().max(1.0);
        self.carry = gap_f - gap;
        let gap = gap as u64;
        if self.phase_left <= gap {
            let next = self.phase_idx + 1;
            self.enter_phase(next);
        } else {
            self.phase_left -= gap;
        }
        let pool = self.pick_pool();
        let idx = self.patterns[pool].next_index();
        let line = self.layouts[pool].line_at(idx);
        Some(TraceEvent {
            gap_instrs: gap as u32,
            line,
            is_write: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_pool_spec() -> AppSpec {
        AppSpec::steady(
            "test2",
            vec![
                PoolSpec::new("small", 64 * 1024, Pattern::Uniform),
                PoolSpec::new("big", 1024 * 1024, Pattern::Sweep).with_callpoints(3),
            ],
            &[1.0, 2.0],
            50.0,
            42,
        )
    }

    #[test]
    fn model_allocates_disjoint_pools() {
        let m = AppModel::new(two_pool_spec());
        let d = m.descriptors_manual();
        assert_eq!(d.len(), 2);
        let pages0: std::collections::HashSet<_> = d[0].pages.iter().collect();
        assert!(d[1].pages.iter().all(|p| !pages0.contains(p)));
        // Pool footprints: 64 KB = 16 pages minimum.
        assert!(d[0].pages.len() >= 16);
    }

    #[test]
    fn trace_stays_within_pools() {
        let m = AppModel::new(two_pool_spec());
        let valid: std::collections::HashSet<u64> = m
            .descriptors_manual()
            .iter()
            .flat_map(|d| d.pages.iter().map(|p| p.0))
            .collect();
        let mut t = m.trace();
        for _ in 0..5000 {
            let ev = t.next_event().unwrap();
            assert!(
                valid.contains(&ev.line.page().0),
                "trace escaped the allocated pools"
            );
        }
    }

    #[test]
    fn apki_close_to_target() {
        let m = AppModel::new(two_pool_spec());
        let mut t = m.trace();
        let mut instrs = 0u64;
        let n = 20_000;
        for _ in 0..n {
            instrs += t.next_event().unwrap().gap_instrs as u64;
        }
        let apki = n as f64 * 1000.0 / instrs as f64;
        assert!((apki - 50.0).abs() < 5.0, "APKI {apki} vs target 50");
    }

    #[test]
    fn weights_respected() {
        let m = AppModel::new(two_pool_spec());
        let d = m.descriptors_manual();
        let small_pages: std::collections::HashSet<u64> = d[0].pages.iter().map(|p| p.0).collect();
        let mut t = m.trace();
        let mut small = 0;
        let n = 30_000;
        for _ in 0..n {
            if small_pages.contains(&t.next_event().unwrap().line.page().0) {
                small += 1;
            }
        }
        let frac = small as f64 / n as f64;
        assert!((frac - 1.0 / 3.0).abs() < 0.05, "small pool frac {frac}");
    }

    #[test]
    fn phased_spec_alternates() {
        // lbm-style: two pools with inverted weights per phase.
        let spec = AppSpec {
            name: "phased",
            pools: vec![
                PoolSpec::new("g1", 256 * 1024, Pattern::Uniform),
                PoolSpec::new("g2", 256 * 1024, Pattern::Sweep),
            ],
            phases: vec![
                Phase {
                    duration_instrs: 100_000,
                    mix: vec![PoolMix::new(0, 0.8), PoolMix::new(1, 0.2)],
                },
                Phase {
                    duration_instrs: 100_000,
                    mix: vec![PoolMix::new(0, 0.2), PoolMix::new(1, 0.8)],
                },
            ],
            apki: 100.0,
            phase_jitter: 0.0,
            seed: 7,
        };
        let m = AppModel::new(spec);
        let d = m.descriptors_manual();
        let g1: std::collections::HashSet<u64> = d[0].pages.iter().map(|p| p.0).collect();
        let mut t = m.trace();
        // Phase 0: ~10k events (100k instrs at 100 APKI); count g1 share in
        // first 8k vs events 12k..18k (phase 1).
        let mut first = 0;
        for _ in 0..8000 {
            if g1.contains(&t.next_event().unwrap().line.page().0) {
                first += 1;
            }
        }
        for _ in 0..4000 {
            t.next_event();
        }
        let mut second = 0;
        for _ in 0..6000 {
            if g1.contains(&t.next_event().unwrap().line.page().0) {
                second += 1;
            }
        }
        let f1 = first as f64 / 8000.0;
        let f2 = second as f64 / 6000.0;
        assert!(f1 > 0.7, "phase 0 should favour g1: {f1}");
        assert!(f2 < 0.35, "phase 1 should favour g2: {f2}");
    }

    #[test]
    fn cluster_descriptors_group_callpoints() {
        let m = AppModel::new(two_pool_spec());
        // Assign all callpoints of pool 1 (3 sites) to cluster 0, pool 0's
        // site to cluster 1.
        let mut map = HashMap::new();
        for (cp, pool, _) in m.callpoints() {
            map.insert(*cp, if *pool == 1 { 0 } else { 1 });
        }
        let d = m.descriptors_from_clusters(&map);
        assert_eq!(d.len(), 2);
        let big = d.iter().find(|x| x.name == "cluster0").unwrap();
        assert!(big.pages.len() >= 256, "1 MB pool = 256 pages");
    }

    #[test]
    fn scaled_spec_shrinks_footprint() {
        let spec = two_pool_spec();
        let full = spec.footprint();
        let half = spec.scaled(0.5).footprint();
        assert!(half < full);
    }

    #[test]
    fn traces_are_deterministic() {
        let m = AppModel::new(two_pool_spec());
        let mut a = m.trace();
        let mut b = m.trace();
        for _ in 0..1000 {
            assert_eq!(a.next_event(), b.next_event());
        }
    }
}
