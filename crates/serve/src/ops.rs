//! The shared operations layer: one implementation per subcommand,
//! returning stdout *lines* instead of printing.
//!
//! Offline `trace_tool` prints the returned lines; the daemon frames
//! each one as a `{"type":"line",...}` response and the client prints
//! them — so a client-mode invocation is byte-identical to the offline
//! one **by construction**, not by parallel maintenance of two code
//! paths. Progress and diagnostics stay on stderr (the daemon's, for
//! served requests), never in the returned payload.
//!
//! Every op takes an [`OpCtx`]: offline callers pass
//! [`OpCtx::offline`]; the dispatcher passes the daemon's
//! [`ServeStore`] (trace-cache directory + curve memo) and the job's
//! [`CancelToken`], which is threaded into [`Experiment`] runs and
//! sweep cell loops.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use whirlpool_repro::harness::{
    sixteen_core_config, CancelToken, Classification, Experiment, SchemeKind, MIX_WARMUP_INSTRS,
};
use wp_bench::sweep::SweepSpec;
use wp_mrc::{
    max_miss_ratio_error_with_slack, profile_streams, profile_streams_scanned, ProfileMode,
    ShardsConfig, StreamProfile,
};
use wp_paws::SchedPolicy;
use wp_trace::{BatchReader, TraceData, TraceError, TraceInfo};

use crate::protocol::{ExpOp, Request};
use crate::store::ServeStore;

/// What an op runs against: nothing (offline), or the daemon's warm
/// store plus the job's cancel token (served).
#[derive(Debug, Clone, Default)]
pub struct OpCtx {
    /// The resident store, when running inside the daemon.
    pub store: Option<Arc<ServeStore>>,
    /// The job's cancel token, when running inside the daemon.
    pub cancel: Option<CancelToken>,
}

impl OpCtx {
    /// The offline context: no store, no cancellation.
    pub fn offline() -> Self {
        Self::default()
    }
}

/// Runs one queued request through the matching op.
///
/// # Errors
///
/// The op's one-line error message.
pub fn run_request(req: &Request, ctx: &OpCtx) -> Result<Vec<String>, String> {
    match req {
        Request::Experiment { op, argv } => match op {
            ExpOp::Record => record(argv, ctx),
            ExpOp::Replay => replay(argv, ctx),
            ExpOp::Obs => obs(argv, ctx),
        },
        Request::Profile { argv } => profile(argv, ctx),
        Request::Sweep { argv } => sweep(argv, ctx),
        Request::Scenario { argv } => scenario(argv, ctx),
        _ => Err(format!("'{}' is not a queued work verb", req.verb())),
    }
}

/// Minimal flag cursor: positionals plus `--flag [value]` pairs.
pub struct Args<'a> {
    rest: &'a [String],
    /// Positional arguments, in order.
    pub positional: Vec<&'a str>,
}

impl<'a> Args<'a> {
    /// Parses `rest` against the declared value-taking and boolean
    /// flags; anything else starting `--` is an error.
    ///
    /// # Errors
    ///
    /// Unknown flags and value flags missing their value.
    pub fn parse(
        rest: &'a [String],
        with_value: &[&str],
        boolean: &[&str],
    ) -> Result<Self, String> {
        let mut positional = Vec::new();
        let mut i = 0;
        while i < rest.len() {
            let arg = rest[i].as_str();
            if with_value.contains(&arg) {
                i += 2;
                if i > rest.len() {
                    return Err(format!("{arg} needs a value"));
                }
            } else if boolean.contains(&arg) {
                i += 1;
            } else if arg.starts_with("--") {
                return Err(format!("unknown flag '{arg}'"));
            } else {
                positional.push(arg);
                i += 1;
            }
        }
        Ok(Self { rest, positional })
    }

    /// The value following `--flag`, if present.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.rest
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.rest.get(i + 1))
            .map(String::as_str)
    }

    /// Whether `--flag` appears at all.
    pub fn flag(&self, flag: &str) -> bool {
        self.rest.iter().any(|a| a == flag)
    }

    /// Every value of a repeatable `--flag value` pair, in order.
    pub fn values(&self, flag: &str) -> Vec<&str> {
        self.rest
            .iter()
            .enumerate()
            .filter(|(_, a)| *a == flag)
            .filter_map(|(i, _)| self.rest.get(i + 1))
            .map(String::as_str)
            .collect()
    }

    /// `--flag N` as an integer (underscores allowed).
    ///
    /// # Errors
    ///
    /// Non-integer values.
    pub fn number(&self, flag: &str) -> Result<Option<u64>, String> {
        self.value(flag)
            .map(|v| {
                v.replace('_', "")
                    .parse::<u64>()
                    .map_err(|_| format!("{flag} expects an integer, got '{v}'"))
            })
            .transpose()
    }
}

fn parse_scheme(s: &str) -> Result<SchemeKind, String> {
    SchemeKind::resolve(s).map_err(|e| e.to_string())
}

fn parse_classification(args: &Args, kind: SchemeKind) -> Result<Classification, String> {
    match args.value("--classification") {
        None => Ok(kind.default_classification()),
        Some("none") => Ok(Classification::None),
        Some("manual") => Ok(Classification::Manual),
        Some("auto") => Ok(Classification::WhirlTool {
            pools: 3,
            train: true,
        }),
        Some(other) => Err(format!("unknown classification '{other}'")),
    }
}

/// Applies the shared `--warmup/--measure/--sixteen-core` overrides plus
/// the context's cancel token.
fn apply_common(mut exp: Experiment, args: &Args, ctx: &OpCtx) -> Result<Experiment, String> {
    if let Some(n) = args.number("--warmup")? {
        exp = exp.warmup(n);
    }
    if let Some(n) = args.number("--measure")? {
        exp = exp.measure(n);
    }
    if args.flag("--sixteen-core") {
        exp = exp.system(sixteen_core_config());
    }
    if let Some(tok) = &ctx.cancel {
        exp = exp.cancel_token(tok.clone());
    }
    Ok(exp)
}

/// `record <app>... --out <file>`: run and capture. Several apps record
/// a multi-program mix; `--parallel` records a task-parallel app.
///
/// # Errors
///
/// Unknown apps/schemes/flags, capture I/O, cancellation.
pub fn record(rest: &[String], ctx: &OpCtx) -> Result<Vec<String>, String> {
    let args = Args::parse(
        rest,
        &[
            "--out",
            "--scheme",
            "--classification",
            "--warmup",
            "--measure",
            "--policy",
        ],
        &["--sixteen-core", "--parallel"],
    )?;
    if args.positional.is_empty() {
        return Err("record takes at least one app name".into());
    }
    let out = PathBuf::from(args.value("--out").ok_or("record needs --out <file>")?);
    let kind = args
        .value("--scheme")
        .map_or(Ok(SchemeKind::Whirlpool), parse_scheme)?;
    if args.flag("--parallel") {
        return record_parallel(&args, kind, &out, ctx);
    }
    if args.value("--policy").is_some() {
        return Err("--policy applies to --parallel records only".into());
    }
    // Surface unknown names before the progress chatter starts.
    for app in &args.positional {
        whirlpool_repro::harness::resolve_app(app).map_err(|e| e.to_string())?;
    }
    if let [_, _, ..] = args.positional[..] {
        // Several apps: record a whole multi-program mix, one stream per
        // core. Mixes use the fixed shared warmup and the per-scheme
        // classification, so the single-app-only flags error.
        if args.value("--classification").is_some() {
            return Err("--classification applies to single-app records only".into());
        }
        if args.number("--warmup")?.is_some() {
            return Err(format!(
                "mix records use the fixed shared warmup ({MIX_WARMUP_INSTRS}); \
                 --warmup applies to single-app records only"
            ));
        }
        // --warmup was rejected above, so the shared overrides apply only
        // --measure and --sixteen-core here.
        let exp = apply_common(
            Experiment::mix(kind, &args.positional).capture_to(&out),
            &args,
            ctx,
        )?;
        let (warmup, measure) = exp.budgets();
        eprintln!(
            "recording mix {:?} under {} (warmup {warmup}, measure {measure})...",
            args.positional,
            kind.label(),
        );
        let summary = exp.run().map_err(|e| e.to_string())?;
        let lines = vec![summary.to_json()];
        validate_capture(&out)?;
        return Ok(lines);
    }
    let app = args.positional[0];
    let classification = parse_classification(&args, kind)?;
    let exp = apply_common(
        Experiment::single(kind, app)
            .classification(classification)
            .capture_to(&out),
        &args,
        ctx,
    )?;
    let (warmup, measure) = exp.budgets();
    eprintln!(
        "recording {app} under {} (warmup {warmup}, measure {measure})...",
        kind.label(),
    );
    let summary = exp.run().map_err(|e| e.to_string())?;
    let lines = vec![summary.to_json()];
    validate_capture(&out)?;
    Ok(lines)
}

/// `record --parallel <app>`: capture a Fig.-13 task-parallel app (one
/// stream per core of the 16-core chip).
fn record_parallel(
    args: &Args,
    kind: SchemeKind,
    out: &Path,
    ctx: &OpCtx,
) -> Result<Vec<String>, String> {
    let [app] = args.positional[..] else {
        return Err("record --parallel takes exactly one parallel app name".into());
    };
    if args.value("--classification").is_some()
        || args.number("--warmup")?.is_some()
        || args.number("--measure")?.is_some()
    {
        return Err("--parallel records run their task traces to exhaustion; \
             --classification/--warmup/--measure apply to single-app records only"
            .into());
    }
    if args.flag("--sixteen-core") {
        return Err(
            "--parallel records always run on the 16-core chip; drop --sixteen-core".into(),
        );
    }
    let policy = match args.value("--policy") {
        None | Some("paws") => SchedPolicy::Paws,
        Some("stealing" | "ws" | "work-stealing") => SchedPolicy::WorkStealing,
        Some(other) => {
            return Err(format!(
                "unknown policy '{other}' (expected 'paws' or 'stealing')"
            ))
        }
    };
    let specs = wp_workloads::parallel::parallel_apps(16, 42);
    let names: Vec<&str> = specs.iter().map(|s| s.name).collect();
    let Some(spec) = specs.iter().find(|s| s.name == app).cloned() else {
        return Err(format!(
            "unknown parallel app '{app}' (expected one of: {})",
            names.join(", ")
        ));
    };
    eprintln!(
        "recording parallel {app} under {} / {policy:?} (16 cores, to exhaustion)...",
        kind.label(),
    );
    let mut exp = Experiment::parallel(kind, spec, policy).capture_to(out);
    if let Some(tok) = &ctx.cancel {
        exp = exp.cancel_token(tok.clone());
    }
    let run = exp.run_full().map_err(|e| e.to_string())?;
    let lines = vec![run.summary.to_json()];
    validate_capture(out)?;
    Ok(lines)
}

/// Deliberate full re-read: validates every checksum of the file we just
/// wrote before anyone ships it, and reports on stderr.
fn validate_capture(out: &Path) -> Result<(), String> {
    let info = TraceInfo::scan(out).map_err(|e| e.to_string())?;
    eprintln!(
        "wrote and validated {} ({} events, {} bytes, {:.2}x vs naive encoding)",
        out.display(),
        info.total_events(),
        info.file_bytes,
        info.compression_ratio(),
    );
    Ok(())
}

/// `replay <file>`: drive a recording through one scheme (or the full
/// Fig. 10 set), one `RunSummary` JSON line per scheme.
///
/// # Errors
///
/// Unknown schemes, missing/corrupt traces, cancellation.
pub fn replay(rest: &[String], ctx: &OpCtx) -> Result<Vec<String>, String> {
    let args = Args::parse(
        rest,
        &["--scheme", "--warmup", "--measure", "--stream"],
        &["--all-schemes", "--no-pools", "--sixteen-core", "--mix"],
    )?;
    let [file] = args.positional[..] else {
        return Err("replay takes exactly one trace file".into());
    };
    let path = Path::new(file);
    let kinds: Vec<SchemeKind> = if args.flag("--all-schemes") {
        SchemeKind::FIG10.to_vec()
    } else {
        vec![args
            .value("--scheme")
            .map_or(Ok(SchemeKind::Whirlpool), parse_scheme)?]
    };
    let stream = args.number("--stream")?;
    if args.flag("--mix") && stream.is_some() {
        return Err("--mix re-attaches every stream; it conflicts with --stream".into());
    }
    // The recorded pools are restored by default (pools-agnostic schemes
    // ignore them); --no-pools strips them.
    let classification = if args.flag("--no-pools") {
        Classification::None
    } else {
        Classification::Manual
    };
    // Each replay validates the chunks of the streams it replays as it
    // decodes them (see `Experiment::run`), so nothing scans the file
    // first. A damaged file reports the scan's error.
    let replayed = stream.unwrap_or(0);
    if !args.flag("--mix") {
        // One stream replays; the others are decoded here, once, so a
        // damaged chunk anywhere still fails the command. The stream
        // table comes from a frame walk that decodes no chunk.
        let scan_error = |e| TraceInfo::scan_error(path, e).to_string();
        let table = wp_trace::stream_table(path).map_err(scan_error)?;
        let rest = table.iter().filter(|m| u64::from(m.id) != replayed);
        check_streams(path, rest.map(|m| m.id)).map_err(scan_error)?;
    }
    let stream = u16::try_from(replayed)
        .map_err(|_| format!("stream index {replayed} is out of range (max 65535)"))?;
    let mut lines = Vec::with_capacity(kinds.len());
    for kind in kinds {
        let exp = if args.flag("--mix") {
            Experiment::replay_all(kind, path)
        } else {
            Experiment::replay(kind, path, stream)
        };
        let exp = apply_common(exp.classification(classification), &args, ctx)?;
        let summary = exp.run().map_err(|e| e.to_string())?;
        lines.push(summary.to_json());
    }
    Ok(lines)
}

/// Checks every chunk of streams `ids` of `path` and their `End` totals,
/// folding the chunks to summaries rather than decoding their events.
fn check_streams(path: &Path, ids: impl Iterator<Item = u16>) -> Result<(), TraceError> {
    let image = Arc::new(TraceData::open(path)?);
    for id in ids {
        let mut reader = BatchReader::new(Arc::clone(&image))?.follow(id);
        while reader.next_summary()?.is_some() {}
    }
    Ok(())
}

/// `profile <file>`: miss curves straight from a recording — exact
/// Mattson or SHARDS-sampled — with an optional exact-vs-sampled error
/// check that gates CI.
///
/// Served requests are memoized in the daemon's curve store, keyed by
/// the full argv plus the trace file's length/mtime: repeat profile
/// requests (the service's hottest verb) return the cached payload
/// without re-reading the trace. `--verify-exact` runs only on the
/// computing call; a memo hit replays its (verified) payload.
///
/// # Errors
///
/// Bad flags, missing/corrupt traces, a failed `--verify-exact` gate.
pub fn profile(rest: &[String], ctx: &OpCtx) -> Result<Vec<String>, String> {
    let args = Args::parse(
        rest,
        &[
            "--stream",
            "--sample-rate",
            "--s-max",
            "--granule",
            "--max-err",
            "--capacity-slack",
        ],
        &["--all-streams", "--exact", "--json", "--verify-exact"],
    )?;
    // Key on the positional (the trace file) when present; flag order
    // differences produce distinct keys, which only costs a duplicate
    // entry, never a wrong hit.
    let memo = ctx.store.as_ref().and_then(|store| {
        let file = args.positional.first()?;
        Some((store, ServeStore::curve_key(rest, Path::new(file))))
    });
    if let Some((store, key)) = &memo {
        if let Some(payload) = store.curve_lookup(key) {
            return Ok(payload.lines().map(str::to_string).collect());
        }
    }
    let lines = profile_uncached(&args)?;
    if let Some((store, key)) = memo {
        store.curve_insert(key, lines.join("\n"));
    }
    Ok(lines)
}

fn profile_uncached(args: &Args) -> Result<Vec<String>, String> {
    let [file] = args.positional[..] else {
        return Err("profile takes exactly one trace file".into());
    };
    let path = Path::new(file);
    let parse_f64 = |flag: &str| -> Result<Option<f64>, String> {
        args.value(flag)
            .map(|v| {
                v.parse::<f64>()
                    .map_err(|_| format!("{flag} expects a number, got '{v}'"))
            })
            .transpose()
    };
    if args.flag("--exact")
        && (args.value("--sample-rate").is_some() || args.value("--s-max").is_some())
    {
        return Err("--exact conflicts with --sample-rate/--s-max".into());
    }
    let rate = parse_f64("--sample-rate")?;
    if let Some(r) = rate {
        if !(r > 0.0 && r <= 1.0) {
            return Err(format!("--sample-rate must be in (0, 1], got {r}"));
        }
    }
    let s_max = match args.number("--s-max")? {
        Some(0) => return Err("--s-max must be positive".into()),
        other => other.map(|n| n as usize),
    };
    // `--s-max N` alone means "adaptive from rate 1": sample everything
    // until the cap forces the rate down.
    let sample = match (rate, s_max) {
        (None, None) => None,
        (r, m) => Some(ShardsConfig {
            rate: r.unwrap_or(1.0),
            s_max: m,
        }),
    };
    let granule = args.number("--granule")?.unwrap_or(64).max(1);
    let max_err = parse_f64("--max-err")?.unwrap_or(0.02);
    // Traces with near-vertical working-set cliffs need a little
    // horizontal tolerance: sampling reproduces a cliff's height but can
    // place it a percent or two off in capacity.
    let slack = parse_f64("--capacity-slack")?.unwrap_or(0.0);
    if !(0.0..=1.0).contains(&slack) {
        return Err(format!("--capacity-slack must be in [0, 1], got {slack}"));
    }
    if (args.value("--max-err").is_some() || args.value("--capacity-slack").is_some())
        && !args.flag("--verify-exact")
    {
        return Err("--max-err/--capacity-slack only apply with --verify-exact".into());
    }
    if args.flag("--verify-exact") && sample.is_none() {
        return Err("--verify-exact needs a sampled profile (--sample-rate/--s-max)".into());
    }
    if args.flag("--all-streams") && args.value("--stream").is_some() {
        return Err("--all-streams profiles every stream; it conflicts with --stream".into());
    }
    // `--all-streams` needs a full scan to enumerate the streams; hold
    // the summary so the exact profiles below reuse it for pre-sizing
    // instead of scanning the file again.
    let mut info: Option<TraceInfo> = None;
    let streams: Vec<u16> = if args.flag("--all-streams") {
        let i = TraceInfo::scan(path).map_err(|e| e.to_string())?;
        if i.streams.is_empty() {
            return Err(format!("{file} defines no streams"));
        }
        let ids = i.streams.iter().map(|s| s.meta.id).collect();
        info = Some(i);
        ids
    } else {
        let k = args.number("--stream")?.unwrap_or(0);
        vec![u16::try_from(k).map_err(|_| format!("stream index {k} is out of range"))?]
    };
    let mode = match sample {
        Some(cfg) => ProfileMode::Sampled(cfg),
        None => ProfileMode::Exact,
    };
    let run = |mode: ProfileMode| match &info {
        Some(i) => profile_streams_scanned(path, i, &streams, mode),
        None => profile_streams(path, &streams, mode),
    };
    let profiles = run(mode).map_err(|e| e.to_string())?;
    // The verification pass re-profiles exactly; each stream's error is
    // the max absolute miss-ratio gap over the capacity sweep.
    let errors: Option<Vec<f64>> = if args.flag("--verify-exact") {
        let exact = run(ProfileMode::Exact).map_err(|e| e.to_string())?;
        Some(
            exact
                .iter()
                .zip(&profiles)
                .map(|(e, s)| {
                    max_miss_ratio_error_with_slack(&e.histogram, &s.histogram, granule, slack)
                })
                .collect(),
        )
    } else {
        None
    };
    let lines = if args.flag("--json") {
        vec![profile_json(
            file,
            sample,
            granule,
            &profiles,
            errors.as_deref(),
        )]
    } else {
        profile_text(file, sample, granule, &profiles, errors.as_deref())
    };
    if let Some(errs) = &errors {
        let worst = errs.iter().cloned().fold(0.0f64, f64::max);
        if worst > max_err {
            return Err(format!(
                "sampled miss ratio is off by {worst:.4} (> --max-err {max_err}) vs exact"
            ));
        }
        eprintln!("verified: max |miss-ratio error| {worst:.4} <= {max_err}");
    }
    Ok(lines)
}

fn profile_json(
    file: &str,
    sample: Option<ShardsConfig>,
    granule: u64,
    profiles: &[StreamProfile],
    errors: Option<&[f64]>,
) -> String {
    let mode = match sample {
        Some(cfg) => format!(
            "{{\"rate\":{},\"s_max\":{}}}",
            cfg.rate,
            cfg.s_max.map_or("null".into(), |n| n.to_string())
        ),
        None => "\"exact\"".to_string(),
    };
    let rows: Vec<String> = profiles
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let curve = p.curve(granule);
            let mpki: Vec<String> = curve.points().iter().map(f64::to_string).collect();
            let mut row = format!(
                "{{\"stream\":{},\"events\":{},\"instructions\":{},\"cold_misses\":{},\
                 \"max_distance\":{},\"final_rate\":{},\"peak_tracked\":{},\"mpki\":[{}]",
                p.stream,
                p.events,
                p.instructions,
                p.histogram.cold_misses(),
                p.histogram.max_distance(),
                p.sampled_rate.map_or("null".into(), |r| r.to_string()),
                p.peak_tracked.map_or("null".into(), |n| n.to_string()),
                mpki.join(","),
            );
            if let Some(errs) = errors {
                row.push_str(&format!(",\"max_miss_ratio_error\":{}", errs[i]));
            }
            row.push('}');
            row
        })
        .collect();
    format!(
        "{{\"file\":{},\"mode\":{mode},\"granule_lines\":{granule},\"streams\":[{}]}}",
        wp_obs::json::quote(file),
        rows.join(","),
    )
}

fn profile_text(
    file: &str,
    sample: Option<ShardsConfig>,
    granule: u64,
    profiles: &[StreamProfile],
    errors: Option<&[f64]>,
) -> Vec<String> {
    let mut out = Vec::new();
    match sample {
        Some(cfg) => out.push(format!(
            "{file} (sampled, rate {}{})",
            cfg.rate,
            cfg.s_max
                .map(|n| format!(", s_max {n}"))
                .unwrap_or_default(),
        )),
        None => out.push(format!("{file} (exact)")),
    }
    for (i, p) in profiles.iter().enumerate() {
        out.push(format!(
            "  stream {}: {} events, {} instructions, {} cold, max distance {}",
            p.stream,
            p.events,
            p.instructions,
            p.histogram.cold_misses(),
            p.histogram.max_distance(),
        ));
        if let (Some(rate), Some(peak)) = (p.sampled_rate, p.peak_tracked) {
            out.push(format!(
                "    final rate {rate:.6}, peak tracked lines {peak}"
            ));
        }
        let total = p.histogram.total().max(1);
        let mut caps = vec![0u64];
        let mut c = granule;
        while c < p.histogram.max_distance() + granule {
            caps.push(c);
            c = c.saturating_mul(4);
        }
        let ratios: Vec<String> = caps
            .iter()
            .map(|&cap| {
                format!(
                    "{cap}:{:.3}",
                    p.histogram.misses_at(cap) as f64 / total as f64
                )
            })
            .collect();
        out.push(format!(
            "    miss ratio by capacity (lines): {}",
            ratios.join(" ")
        ));
        if let Some(errs) = errors {
            out.push(format!(
                "    max |miss-ratio error| vs exact: {:.4}",
                errs[i]
            ));
        }
    }
    out
}

/// `obs <app|file>`: one run with the observability probes attached,
/// JSONL timeline out (or, with `--obs-out`, written server-side with
/// the summary returned).
///
/// # Errors
///
/// Unknown apps/schemes, missing traces, cancellation, timeline I/O.
pub fn obs(rest: &[String], ctx: &OpCtx) -> Result<Vec<String>, String> {
    let args = Args::parse(
        rest,
        &[
            "--scheme",
            "--classification",
            "--warmup",
            "--measure",
            "--sample-every",
            "--obs-out",
        ],
        &["--sixteen-core"],
    )?;
    let [target] = args.positional[..] else {
        return Err("obs takes exactly one app name or trace file".into());
    };
    let kind = args
        .value("--scheme")
        .map_or(Ok(SchemeKind::Whirlpool), parse_scheme)?;
    let classification = parse_classification(&args, kind)?;
    let mut obs_cfg = match args.number("--sample-every")? {
        Some(n) => wp_obs::ObsConfig::every(n),
        None => wp_obs::ObsConfig::default(),
    };
    let out = args.value("--obs-out").map(PathBuf::from);
    if let Some(path) = &out {
        obs_cfg = obs_cfg.out(path);
    }
    let path = Path::new(target);
    let exp = if path.exists() {
        // Replays restore the recorded pools unless told otherwise, same
        // as `replay` without `--no-pools`.
        Experiment::replay(kind, path, 0)
    } else {
        whirlpool_repro::harness::resolve_app(target).map_err(|e| e.to_string())?;
        Experiment::single(kind, target)
    };
    let exp = apply_common(
        exp.classification(classification).observe(obs_cfg),
        &args,
        ctx,
    )?;
    let run = exp.run_full().map_err(|e| e.to_string())?;
    let report = run.obs.as_ref().expect("observe() attaches a report");
    match out {
        Some(path) => {
            eprintln!(
                "wrote {} ({} pool samples, {} reconfigurations)",
                path.display(),
                report.timeline.len(),
                report.reconfigs.len(),
            );
            Ok(vec![run.summary.to_json()])
        }
        None => Ok(report
            .to_jsonl(&run.summary.scheme)
            .lines()
            .map(str::to_string)
            .collect()),
    }
}

/// `sweep --apps a,b[,...]`: a (scheme × app) grid on the sweep engine,
/// emitting the deterministic `cells_json` projection (one line) — the
/// same bytes at any `WP_JOBS`, cache temperature, or daemon/offline
/// split. `--full-json` emits the self-describing
/// `to_json` form instead (its `env` block varies by construction).
///
/// # Errors
///
/// Unknown apps/schemes, bad flag combinations, capture I/O,
/// cancellation.
pub fn sweep(rest: &[String], ctx: &OpCtx) -> Result<Vec<String>, String> {
    let args = Args::parse(
        rest,
        &[
            "--apps",
            "--schemes",
            "--warmup",
            "--measure",
            "--jobs",
            "--cache-dir",
        ],
        &["--full-json"],
    )?;
    if !args.positional.is_empty() {
        return Err(format!(
            "sweep takes no positional arguments (got '{}'); use --apps a,b,...",
            args.positional[0]
        ));
    }
    let apps: Vec<&str> = args
        .value("--apps")
        .ok_or("sweep needs --apps <a,b,...>")?
        .split(',')
        .filter(|s| !s.is_empty())
        .collect();
    if apps.is_empty() {
        return Err("--apps lists no apps".into());
    }
    let schemes: Vec<SchemeKind> = match args.value("--schemes") {
        None => SchemeKind::FIG10.to_vec(),
        Some(list) => list
            .split(',')
            .filter(|s| !s.is_empty())
            .map(parse_scheme)
            .collect::<Result<_, _>>()?,
    };
    if schemes.is_empty() {
        return Err("--schemes lists no schemes".into());
    }
    let mut spec = SweepSpec::grid(&schemes, &apps);
    match (args.number("--warmup")?, args.number("--measure")?) {
        (Some(w), Some(m)) => spec = spec.budgets(w, m),
        (None, None) => {}
        _ => return Err("sweep needs --warmup and --measure together (or neither)".into()),
    }
    if let Some(j) = args.number("--jobs")? {
        spec = spec.jobs(j.max(1) as usize);
    }
    match (&ctx.store, args.value("--cache-dir")) {
        (Some(_), Some(_)) => {
            return Err("--cache-dir applies to offline sweeps; the daemon owns its cache".into())
        }
        (Some(store), None) => spec = spec.cache_dir(store.cache_dir()),
        (None, Some(dir)) => spec = spec.cache_dir(dir),
        (None, None) => {}
    }
    if let Some(tok) = &ctx.cancel {
        spec = spec.cancel_token(tok.clone());
    }
    let result = spec.run().map_err(|e| e.to_string())?;
    Ok(vec![if args.flag("--full-json") {
        result.to_json()
    } else {
        result.cells_json()
    }])
}

/// `scenario <file.wps> [--schemes a,b,...] [--jobs N] [--timeline]
/// [--check-timeline]` — run a multi-tenant scenario under
/// every requested scheme and emit one deterministic report line, plus
/// (with `--timeline`) the tenant-event JSONL.
///
/// The default scheme set is the multi-tenant headline comparison:
/// Whirlpool, Memshare, Jigsaw, and S-NUCA (LRU). Scenario runs never
/// touch the trace cache (alone baselines are live single-entry mixes),
/// so the op behaves identically offline and in the daemon.
///
/// # Errors
///
/// One line: unreadable/malformed `.wps` files, unknown schemes, or any
/// harness error from the underlying runs.
pub fn scenario(rest: &[String], ctx: &OpCtx) -> Result<Vec<String>, String> {
    let args = Args::parse(
        rest,
        &["--schemes", "--jobs"],
        &["--timeline", "--check-timeline"],
    )?;
    let path = match args.positional.as_slice() {
        [p] => Path::new(p),
        [] => return Err("scenario needs a .wps file".into()),
        more => {
            return Err(format!(
                "scenario takes one .wps file (got '{}' too)",
                more[1]
            ))
        }
    };
    let sc = wp_tenant::Scenario::load(path).map_err(|e| e.to_string())?;
    let schemes: Vec<SchemeKind> = match args.value("--schemes") {
        None => vec![
            SchemeKind::Whirlpool,
            SchemeKind::Memshare,
            SchemeKind::Jigsaw,
            SchemeKind::SNucaLru,
        ],
        Some(list) => list
            .split(',')
            .filter(|s| !s.is_empty())
            .map(parse_scheme)
            .collect::<Result<_, _>>()?,
    };
    if schemes.is_empty() {
        return Err("--schemes lists no schemes".into());
    }
    let mut opts = wp_tenant::ScenarioOpts {
        cancel: ctx.cancel.clone(),
        ..Default::default()
    };
    if let Some(j) = args.number("--jobs")? {
        opts.jobs = Some(j.max(1) as usize);
    }
    let report = wp_tenant::run_scenario(&sc, &schemes, &opts).map_err(|e| e.to_string())?;
    let timeline = report.timeline_jsonl();
    if args.flag("--check-timeline") {
        wp_tenant::validate_timeline(&timeline)
            .map_err(|e| format!("timeline validation failed: {e}"))?;
    }
    let mut lines = vec![report.to_json()];
    if args.flag("--timeline") {
        lines.extend(timeline.lines().map(str::to_string));
    }
    Ok(lines)
}
