//! Trace-file entry points: drive the Mattson/SHARDS machinery straight
//! from a recorded `.wpt` trace, no live workload model required.
//!
//! Everything funnels through [`profile_streams`], which profiles any set
//! of a trace's streams — exact or SHARDS-sampled — in **one** file scan.
//! The single-stream helpers ([`histogram_from_trace`],
//! [`curve_from_trace`] and their `_sampled` variants) are thin wrappers
//! over it; profiling a whole mix capture no longer costs one decode pass
//! per stream.

use std::path::Path;

use wp_trace::{BatchReader, EventBatch, TraceError, TraceInfo};

use crate::curve::MissCurve;
use crate::histogram::StackDistanceHistogram;
use crate::mattson::MattsonStack;
use crate::shards::{ShardsConfig, ShardsStack};

/// How a trace stream is profiled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProfileMode {
    /// Exact Mattson: every reference drives the stack. Memory scales
    /// with the stream's distinct-line footprint; the stacks are
    /// pre-sized from the trace's per-stream line spans so steady-state
    /// profiling performs zero reallocations.
    Exact,
    /// SHARDS spatial-hash sampling: ~constant memory and roughly
    /// `1/rate` less stack work, at a small bounded miss-ratio error.
    Sampled(ShardsConfig),
}

/// One stream's profile out of [`profile_streams`].
#[derive(Debug, Clone)]
pub struct StreamProfile {
    /// The stream id this row profiles.
    pub stream: u16,
    /// The (expanded, corrected) stack-distance histogram.
    pub histogram: StackDistanceHistogram,
    /// Instructions the stream covers (for MPKI normalization).
    pub instructions: u64,
    /// References processed.
    pub events: u64,
    /// Final sampling rate (`None` for exact profiling; lower than the
    /// configured rate when `s_max` adaptation kicked in).
    pub sampled_rate: Option<f64>,
    /// Peak tracked-line-set size (`None` for exact profiling).
    pub peak_tracked: Option<usize>,
}

impl StreamProfile {
    /// The stream's miss curve at `granule_lines` capacity granularity.
    pub fn curve(&self, granule_lines: u64) -> MissCurve {
        MissCurve::from_histogram(&self.histogram, self.instructions.max(1), granule_lines)
    }
}

enum StackKind {
    Exact(MattsonStack),
    Sampled(ShardsStack),
}

impl StackKind {
    fn access(&mut self, line: u64) {
        match self {
            StackKind::Exact(s) => {
                s.access(line);
            }
            StackKind::Sampled(s) => s.access(line),
        }
    }

    fn finish(self) -> (StackDistanceHistogram, Option<f64>, Option<usize>) {
        match self {
            StackKind::Exact(mut s) => (s.take_histogram(), None, None),
            StackKind::Sampled(mut s) => {
                let rate = s.rate();
                let peak = s.peak_tracked();
                (s.take_histogram(), Some(rate), Some(peak))
            }
        }
    }
}

/// Profiles streams `streams` of the trace at `path` in a single file
/// scan, fanning each decoded record to its stream's stack. This is the
/// shared core every trace-profiling surface sits on: a 4-core mix
/// capture is profiled with one decode pass instead of four.
///
/// Results come back in the order of `streams`.
///
/// # Errors
///
/// Propagates any [`TraceError`] from the file (missing, truncated,
/// corrupt); requesting an undefined or duplicate stream is reported as
/// [`TraceError::Corrupt`].
pub fn profile_streams(
    path: &Path,
    streams: &[u16],
    mode: ProfileMode,
) -> Result<Vec<StreamProfile>, TraceError> {
    // Exact stacks are pre-sized from the trace's own summary (see
    // `profile_streams_scanned`); the extra validating scan is cheap
    // next to exact Mattson work. Sampled profiling skips it and stays
    // strictly single-pass (its stacks are bounded by `s_max` instead).
    let info = match mode {
        ProfileMode::Exact => Some(TraceInfo::scan(path)?),
        ProfileMode::Sampled(_) => None,
    };
    run_profile(path, streams, mode, info.as_ref())
}

/// [`profile_streams`] for callers that already hold the trace's
/// [`TraceInfo`] (e.g. from enumerating its streams): exact-mode
/// pre-sizing reuses it instead of paying another whole-file scan.
///
/// # Errors
///
/// As for [`profile_streams`].
pub fn profile_streams_scanned(
    path: &Path,
    info: &TraceInfo,
    streams: &[u16],
    mode: ProfileMode,
) -> Result<Vec<StreamProfile>, TraceError> {
    run_profile(path, streams, mode, Some(info))
}

fn run_profile(
    path: &Path,
    streams: &[u16],
    mode: ProfileMode,
    info: Option<&TraceInfo>,
) -> Result<Vec<StreamProfile>, TraceError> {
    for (i, sid) in streams.iter().enumerate() {
        if streams[..i].contains(sid) {
            return Err(TraceError::Corrupt(format!(
                "stream {sid} requested more than once"
            )));
        }
    }
    // Pre-size exact stacks from the summary when one is available:
    // distinct lines can exceed neither the stream's line span nor its
    // event count.
    let mut slots: Vec<(u16, StackKind, u64, u64)> = match mode {
        ProfileMode::Exact => streams
            .iter()
            .map(|&sid| {
                let est = info
                    .and_then(|i| i.streams.iter().find(|s| s.meta.id == sid))
                    .map_or(0, |s| {
                        let span = s
                            .line_span
                            .map_or(0, |(lo, hi)| (hi - lo).saturating_add(1));
                        span.min(s.events)
                    });
                let stack = if est > 0 {
                    MattsonStack::with_line_capacity(est.min(1 << 20) as usize)
                } else {
                    MattsonStack::new()
                };
                (sid, StackKind::Exact(stack), 0u64, 0u64)
            })
            .collect(),
        ProfileMode::Sampled(cfg) => streams
            .iter()
            .map(|&sid| (sid, StackKind::Sampled(ShardsStack::new(cfg)), 0u64, 0u64))
            .collect(),
    };
    let mut reader = BatchReader::open(path)?;
    let mut batch = EventBatch::new();
    while let Some(sid) = reader.next_chunk(&mut batch)? {
        if let Some(slot) = slots.iter_mut().find(|s| s.0 == sid) {
            slot.2 += batch.gaps.iter().map(|&g| u64::from(g)).sum::<u64>();
            slot.3 += batch.len() as u64;
            for line in &batch.lines {
                slot.1.access(line.0);
            }
        }
    }
    for &sid in streams {
        if reader.stream(sid).is_none() {
            return Err(TraceError::Corrupt(format!(
                "stream {sid} is not defined in the trace"
            )));
        }
    }
    Ok(slots
        .into_iter()
        .map(|(stream, stack, instructions, events)| {
            let (histogram, sampled_rate, peak_tracked) = stack.finish();
            StreamProfile {
                stream,
                histogram,
                instructions,
                events,
                sampled_rate,
                peak_tracked,
            }
        })
        .collect())
}

/// Runs an exact Mattson stack over stream `stream` of the trace at
/// `path`, returning the stack-distance histogram and the instruction
/// count the stream covers (for MPKI normalization).
///
/// # Errors
///
/// Propagates any [`TraceError`] from the file (missing, truncated,
/// corrupt, undefined stream).
pub fn histogram_from_trace(
    path: &Path,
    stream: u16,
) -> Result<(StackDistanceHistogram, u64), TraceError> {
    let mut profiles = profile_streams(path, &[stream], ProfileMode::Exact)?;
    let p = profiles.pop().expect("one stream requested");
    Ok((p.histogram, p.instructions))
}

/// [`histogram_from_trace`] with SHARDS sampling: the histogram is
/// expanded and SHARDS_adj-corrected, so totals and miss ratios are
/// directly comparable to the exact ones.
///
/// # Errors
///
/// As for [`histogram_from_trace`].
pub fn histogram_from_trace_sampled(
    path: &Path,
    stream: u16,
    config: ShardsConfig,
) -> Result<(StackDistanceHistogram, u64), TraceError> {
    let mut profiles = profile_streams(path, &[stream], ProfileMode::Sampled(config))?;
    let p = profiles.pop().expect("one stream requested");
    Ok((p.histogram, p.instructions))
}

/// The miss curve of stream `stream` of the trace at `path`, at
/// `granule_lines` capacity granularity — the trace-driven analogue of
/// the profiler's per-callpoint curves, over the whole stream.
///
/// # Errors
///
/// Propagates any [`TraceError`] from the file.
pub fn curve_from_trace(
    path: &Path,
    stream: u16,
    granule_lines: u64,
) -> Result<MissCurve, TraceError> {
    let (hist, instrs) = histogram_from_trace(path, stream)?;
    Ok(MissCurve::from_histogram(
        &hist,
        instrs.max(1),
        granule_lines,
    ))
}

/// [`curve_from_trace`] with SHARDS sampling.
///
/// # Errors
///
/// Propagates any [`TraceError`] from the file.
pub fn curve_from_trace_sampled(
    path: &Path,
    stream: u16,
    granule_lines: u64,
    config: ShardsConfig,
) -> Result<MissCurve, TraceError> {
    let (hist, instrs) = histogram_from_trace_sampled(path, stream, config)?;
    Ok(MissCurve::from_histogram(
        &hist,
        instrs.max(1),
        granule_lines,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wp_trace::{TraceReader, TraceWriter};

    fn temp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("wp-mrc-trace-{}-{name}", std::process::id()))
    }

    #[test]
    fn curve_of_a_cyclic_sweep_has_the_right_knee() {
        // A cyclic sweep over 1024 lines at 10 APKI: every non-cold access
        // has stack distance exactly 1024, so the curve collapses to ~0
        // once capacity reaches the working set.
        let path = temp("sweep.wpt");
        let mut w = TraceWriter::create(&path).unwrap();
        let s = w.add_stream("sweep", &[]).unwrap();
        for i in 0..8192u64 {
            w.record(s, 100, wp_mem::LineAddr(i % 1024), false).unwrap();
        }
        w.finish().unwrap();

        let (hist, instrs) = histogram_from_trace(&path, 0).unwrap();
        assert_eq!(instrs, 819_200);
        assert_eq!(hist.total(), 8192);
        assert_eq!(hist.cold_misses(), 1024);

        let curve = curve_from_trace(&path, 0, 64).unwrap();
        // Below the working set everything misses (10 APKI); at ≥1024
        // lines only the cold misses remain.
        assert!(curve.at_zero() > 9.9);
        assert!(curve.interp_at_lines(512) > 9.9);
        assert!(curve.interp_at_lines(1088) < 1.5);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn undefined_stream_is_an_error() {
        let path = temp("nostream.wpt");
        let mut w = TraceWriter::create(&path).unwrap();
        let _ = w.add_stream("only", &[]).unwrap();
        w.finish().unwrap();
        assert!(histogram_from_trace(&path, 5).is_err());
        assert!(histogram_from_trace(&path, 0).is_ok());
        assert!(histogram_from_trace_sampled(&path, 5, ShardsConfig::fixed(0.5)).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_an_error() {
        assert!(matches!(
            curve_from_trace(Path::new("/nonexistent/trace.wpt"), 0, 64),
            Err(TraceError::Io(_))
        ));
        assert!(curve_from_trace_sampled(
            Path::new("/nonexistent/trace.wpt"),
            0,
            64,
            ShardsConfig::fixed(0.1)
        )
        .is_err());
    }

    /// Writes a 3-stream mix-like trace; returns the path.
    fn mix_trace(name: &str) -> std::path::PathBuf {
        let path = temp(name);
        let mut w = TraceWriter::create(&path).unwrap();
        let a = w.add_stream("hot", &[]).unwrap();
        let b = w.add_stream("scan", &[]).unwrap();
        let c = w.add_stream("mid", &[]).unwrap();
        let mut x = 0x9E37u64;
        for i in 0..6000u64 {
            w.record(a, 10, wp_mem::LineAddr(i % 64), false).unwrap();
            w.record(b, 20, wp_mem::LineAddr(1_000_000 + i), i % 2 == 0)
                .unwrap();
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            w.record(c, 30, wp_mem::LineAddr(500_000 + x % 2048), false)
                .unwrap();
        }
        w.finish().unwrap();
        path
    }

    #[test]
    fn multi_stream_single_pass_matches_per_stream_wrappers() {
        let path = mix_trace("mix.wpt");
        let all = profile_streams(&path, &[0, 1, 2], ProfileMode::Exact).unwrap();
        assert_eq!(all.len(), 3);
        for p in &all {
            let (hist, instrs) = histogram_from_trace(&path, p.stream).unwrap();
            assert_eq!(p.histogram, hist, "stream {}", p.stream);
            assert_eq!(p.instructions, instrs);
            assert_eq!(p.events, 6000);
            assert_eq!(p.sampled_rate, None);
        }
        // Stream order in the request is the order of the results.
        let rev = profile_streams(&path, &[2, 0], ProfileMode::Exact).unwrap();
        assert_eq!(rev[0].stream, 2);
        assert_eq!(rev[1].stream, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sampled_profile_is_close_and_reports_rate() {
        let path = mix_trace("mix-sampled.wpt");
        let exact = profile_streams(&path, &[2], ProfileMode::Exact).unwrap();
        let sampled = profile_streams(
            &path,
            &[2],
            ProfileMode::Sampled(ShardsConfig::adaptive(0.5, 512)),
        )
        .unwrap();
        let p = &sampled[0];
        assert!(p.sampled_rate.is_some());
        assert!(p.peak_tracked.unwrap() <= 512);
        assert_eq!(p.histogram.total(), exact[0].histogram.total());
        let err = crate::histogram::max_miss_ratio_error(&exact[0].histogram, &p.histogram, 64);
        // A 6k-event stream is statistically tiny; the tight (≤0.02)
        // accuracy bounds are asserted on full-length streams in
        // crates/mrc/tests/shards.rs and tests/mrc_sampling.rs.
        assert!(err <= 0.10, "miss-ratio error {err} too large at rate 0.5");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn duplicate_stream_request_is_an_error() {
        let path = mix_trace("dup.wpt");
        assert!(profile_streams(&path, &[1, 1], ProfileMode::Exact).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn exact_profiling_from_trace_never_reallocates() {
        // The pre-sizing satellite: a pre-sized stack profiles a trace
        // with zero Fenwick growths, while a default stack on the same
        // footprint must grow.
        let path = temp("presize.wpt");
        let mut w = TraceWriter::create(&path).unwrap();
        let s = w.add_stream("big", &[]).unwrap();
        let mut x = 0xA5A5u64;
        for _ in 0..200_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            w.record(s, 10, wp_mem::LineAddr(x % 40_000), false)
                .unwrap();
        }
        w.finish().unwrap();

        let mut presized = MattsonStack::with_line_capacity(40_000);
        let mut default = MattsonStack::new();
        let mut reader = TraceReader::open(&path).unwrap();
        while let Some((_, rec)) = reader.next_record().unwrap() {
            presized.access(rec.line.0);
            default.access(rec.line.0);
        }
        assert_eq!(presized.reallocations(), 0, "pre-sized stack grew");
        assert!(default.reallocations() > 0, "default stack never grew?");
        assert_eq!(presized.take_histogram(), default.take_histogram());
        std::fs::remove_file(&path).unwrap();
    }
}
