//! The WhirlTool profiler (Sec. 4.1).
//!
//! Identifies allocations by callpoint and records each callpoint's
//! stack-distance distribution per interval. "The profiler periodically
//! records miss rate curves for all callpoints, which is important to
//! distinguish allocations that are similar on average but whose behavior
//! varies over time (e.g., lbm)."

use std::collections::HashMap;

use wp_mem::{CallpointId, PageId};
use wp_mrc::{MattsonStack, MissCurve};
use wp_sim::Workload;

/// Profiler configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfilerConfig {
    /// Instructions per profiling interval (the paper samples every 50 M;
    /// scaled-down runs use proportionally shorter intervals).
    pub interval_instrs: u64,
    /// Total instructions to profile.
    pub total_instrs: u64,
    /// Curve granule in lines.
    pub granule_lines: u64,
    /// Points per emitted curve.
    pub curve_points: usize,
}

impl Default for ProfilerConfig {
    fn default() -> Self {
        Self {
            interval_instrs: 2_000_000,
            total_instrs: 16_000_000,
            granule_lines: 1024,
            curve_points: 201,
        }
    }
}

/// Profiling output: per-interval, per-callpoint miss curves.
#[derive(Debug, Clone)]
pub struct ProfileData {
    /// Callpoints observed, in first-seen order.
    pub callpoints: Vec<CallpointId>,
    /// `intervals[i][cp]` = callpoint `cp`'s miss curve in interval `i`
    /// (absent = no accesses that interval).
    pub intervals: Vec<HashMap<CallpointId, MissCurve>>,
    /// Total accesses per callpoint over the whole profile.
    pub accesses: HashMap<CallpointId, u64>,
}

impl ProfileData {
    /// Approximate profile size in bytes (the paper reports 200 KB–1.25 MB
    /// per app): curves × points × 8 bytes.
    pub fn size_bytes(&self) -> usize {
        self.intervals
            .iter()
            .map(|m| m.values().map(|c| c.len() * 8).sum::<usize>())
            .sum()
    }
}

/// Profiles `trace` for `cfg.total_instrs`, attributing each access to a
/// callpoint via `page_to_callpoint` (built from the allocator's records —
/// the Pintool's role in the paper). Accesses to unmapped pages are
/// attributed to a synthetic "unknown" callpoint, as the real tool's
/// thread-private fallback does.
pub fn profile(
    trace: &mut dyn Workload,
    page_to_callpoint: &HashMap<PageId, CallpointId>,
    cfg: ProfilerConfig,
) -> ProfileData {
    let _span = wp_obs::span(wp_obs::Phase::Profile);
    const UNKNOWN: CallpointId = CallpointId(0);
    let mut stacks: HashMap<CallpointId, MattsonStack> = HashMap::new();
    let mut order: Vec<CallpointId> = Vec::new();
    let mut accesses: HashMap<CallpointId, u64> = HashMap::new();
    let mut intervals = Vec::new();
    let mut instrs = 0u64;
    let mut interval_instrs = 0u64;
    while instrs < cfg.total_instrs {
        let Some(ev) = trace.next_event() else { break };
        instrs += ev.gap_instrs as u64;
        interval_instrs += ev.gap_instrs as u64;
        let cp = page_to_callpoint
            .get(&ev.line.page())
            .copied()
            .unwrap_or(UNKNOWN);
        let stack = stacks.entry(cp).or_insert_with(|| {
            order.push(cp);
            MattsonStack::new()
        });
        stack.access(ev.line.0);
        *accesses.entry(cp).or_insert(0) += 1;
        if interval_instrs >= cfg.interval_instrs {
            intervals.push(flush_interval(&mut stacks, interval_instrs, cfg));
            interval_instrs = 0;
        }
    }
    if interval_instrs > 0 {
        intervals.push(flush_interval(&mut stacks, interval_instrs, cfg));
    }
    ProfileData {
        callpoints: order,
        intervals,
        accesses,
    }
}

/// Profiles stream 0 of a recorded `.wpt` trace — the offline entry
/// point, for traces captured elsewhere (or authored externally) where no
/// live model exists to re-run.
///
/// The page→callpoint map is derived from the trace's pool table, so
/// attribution is pool-granular: pool `i` of the recording becomes
/// callpoint `i + 1` (callpoint 0 stays the unknown/thread-private
/// fallback). Returns the profile plus the `(callpoint, pool name)`
/// legend for labelling clusters.
///
/// # Errors
///
/// Fails if the trace is missing, truncated before its stream
/// definition, or structurally corrupt.
pub fn profile_trace_file(
    path: &std::path::Path,
    cfg: ProfilerConfig,
) -> Result<(ProfileData, Vec<(CallpointId, String)>), wp_trace::TraceError> {
    let mut bundle = wp_sim::trace_bundle(path, 0, true)?;
    let mut page_map: HashMap<PageId, CallpointId> = HashMap::new();
    let mut legend = Vec::with_capacity(bundle.pools.len());
    for (i, p) in bundle.pools.iter().enumerate() {
        let cp = CallpointId(i as u64 + 1);
        legend.push((cp, p.name.clone()));
        for pg in &p.pages {
            page_map.insert(*pg, cp);
        }
    }
    Ok((profile(bundle.trace.as_mut(), &page_map, cfg), legend))
}

fn flush_interval(
    stacks: &mut HashMap<CallpointId, MattsonStack>,
    instrs: u64,
    cfg: ProfilerConfig,
) -> HashMap<CallpointId, MissCurve> {
    let mut out = HashMap::new();
    for (&cp, stack) in stacks.iter_mut() {
        let hist = stack.take_histogram();
        if hist.total() == 0 {
            continue;
        }
        let curve = MissCurve::from_histogram(&hist, instrs.max(1), cfg.granule_lines)
            .resized(cfg.curve_points)
            .monotonized();
        out.insert(cp, curve);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wp_mem::LineAddr;
    use wp_sim::TraceEvent;

    /// A toy trace: two "structures", one small/hot, one streaming.
    fn toy_trace() -> impl Workload {
        let mut i = 0u64;
        move || {
            i += 1;
            let (line, _cp) = if i % 2 == 0 {
                (i / 2 % 256, 1)
            } else {
                (100_000 + i, 2) // never repeats
            };
            Some(TraceEvent {
                gap_instrs: 20,
                line: LineAddr(line),
                is_write: false,
            })
        }
    }

    fn page_map() -> HashMap<PageId, CallpointId> {
        let mut m = HashMap::new();
        // Hot structure: lines 0..256 → pages 0..4.
        for p in 0..4 {
            m.insert(PageId(p), CallpointId(1));
        }
        // Streaming structure: everything above line 100k.
        for p in 1500..40_000 {
            m.insert(PageId(p), CallpointId(2));
        }
        m
    }

    #[test]
    fn profiler_separates_callpoints() {
        let mut t = toy_trace();
        let cfg = ProfilerConfig {
            interval_instrs: 50_000,
            total_instrs: 200_000,
            granule_lines: 64,
            curve_points: 32,
        };
        let data = profile(&mut t, &page_map(), cfg);
        assert!(data.callpoints.contains(&CallpointId(1)));
        assert!(data.callpoints.contains(&CallpointId(2)));
        assert_eq!(data.intervals.len(), 4);
        // Hot structure: curve drops to ~0 within a few granules.
        let hot = &data.intervals[1][&CallpointId(1)];
        assert!(hot.mpki_at(31) < 0.2 * hot.at_zero());
        // Streaming structure: flat-ish (all cold).
        let cold = &data.intervals[1][&CallpointId(2)];
        assert!(cold.mpki_at(31) > 0.8 * cold.at_zero());
    }

    #[test]
    fn access_counts_tracked() {
        let mut t = toy_trace();
        let data = profile(
            &mut t,
            &page_map(),
            ProfilerConfig {
                interval_instrs: 10_000,
                total_instrs: 40_000,
                granule_lines: 64,
                curve_points: 16,
            },
        );
        let a1 = data.accesses[&CallpointId(1)];
        let a2 = data.accesses[&CallpointId(2)];
        assert!(a1 > 0 && a2 > 0);
        assert!((a1 as i64 - a2 as i64).abs() <= 2, "even split expected");
    }

    #[test]
    fn unknown_pages_fall_back() {
        let mut t = || {
            Some(TraceEvent {
                gap_instrs: 10,
                line: LineAddr(999_999_999),
                is_write: false,
            })
        };
        let data = profile(&mut t, &HashMap::new(), ProfilerConfig::default());
        assert!(data.callpoints.contains(&CallpointId(0)));
    }

    #[test]
    fn profile_size_is_modest() {
        let mut t = toy_trace();
        let data = profile(
            &mut t,
            &page_map(),
            ProfilerConfig {
                interval_instrs: 20_000,
                total_instrs: 200_000,
                granule_lines: 64,
                curve_points: 201,
            },
        );
        // The paper reports 200 KB–1.25 MB; the toy profile is far smaller
        // but nonzero.
        assert!(data.size_bytes() > 0);
        assert!(data.size_bytes() < 2 * 1024 * 1024);
    }

    #[test]
    fn profiles_a_recorded_trace_by_pool() {
        use wp_trace::{PoolMeta, TraceWriter};
        let path =
            std::env::temp_dir().join(format!("wp-whirltool-profile-{}.wpt", std::process::id()));
        let pools = [
            PoolMeta {
                name: "hot".into(),
                pool: Some(0),
                bytes: 4 * 4096,
                pages: (0..4).map(PageId).collect(),
            },
            PoolMeta {
                name: "stream".into(),
                pool: Some(1),
                bytes: 4096 * 2048,
                pages: (1500..3548).map(PageId).collect(),
            },
        ];
        let mut w = TraceWriter::create(&path).unwrap();
        let s = w.add_stream("toy", &pools).unwrap();
        for i in 1..=10_000u64 {
            let line = if i % 2 == 0 { i / 2 % 256 } else { 96_000 + i };
            w.record(s, 20, LineAddr(line), false).unwrap();
        }
        w.finish().unwrap();

        let cfg = ProfilerConfig {
            interval_instrs: 50_000,
            total_instrs: 200_000,
            granule_lines: 64,
            curve_points: 32,
        };
        let (data, legend) = profile_trace_file(&path, cfg).unwrap();
        assert_eq!(legend.len(), 2);
        assert_eq!(legend[0].1, "hot");
        // Pool 0 → callpoint 1 (hot), pool 1 → callpoint 2 (streaming).
        let hot = &data.intervals[1][&CallpointId(1)];
        assert!(hot.mpki_at(31) < 0.2 * hot.at_zero());
        let cold = &data.intervals[1][&CallpointId(2)];
        assert!(cold.mpki_at(31) > 0.8 * cold.at_zero());
        std::fs::remove_file(&path).unwrap();
    }
}
