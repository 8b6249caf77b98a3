//! The served session: two closed-loop connections to a fresh `trace_tool
//! serve` daemon, working through a seeded request sequence.
//!
//! The sequence is a run of 24-request passes: the same requests in a
//! seeded order that changes every pass, so the requests that overlap in
//! time vary over a session instead of repeating one seed's pairing. Each
//! connection takes the
//! next unsent request of the sequence as soon as its previous reply is
//! complete, so both stay busy and neither waits for the other at pass
//! boundaries. Light requests are `status` and repeat `profile` requests
//! (curve-memo hits); heavy requests run an op — small replays (LRU and
//! Whirlpool), live `record` captures, memo-miss `profile`s with keys no
//! earlier pass used, a warm `sweep` and the smoke scenario.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use whirlpool_repro::bench_check::{parse, Json};
use wp_mrc::{profile_streams, ProfileMode, ShardsConfig};
use wp_serve::ops::{self, Args, OpCtx};
use wp_serve::{Client, ExpOp, Request};
use wp_trace::TraceInfo;

use crate::json::Obj;
use crate::traced::{codec_timings, median_of};

/// The apps behind the session's replay and profile traces, with
/// measurement budgets that give each trace about 170 k events, so ops on
/// them cost alike when run alone. Like the rest of the request mix, the
/// budgets are chosen, not taken from measured traffic (see README.md).
pub const SERVE_APPS: [(&str, u64); 3] = [
    ("mcf", 2_000_000),
    ("delaunay", 6_000_000),
    ("milc", 4_000_000),
];
/// Warmup budget of the session traces and of served `record`s.
pub const SERVE_WARMUP: u64 = 200_000;
/// Measurement budget of served `record`s.
const RECORD_MEASURE: u64 = 4_000_000;
/// Apps the served `record`s capture.
const RECORD_APPS: [&str; 2] = ["milc", "delaunay"];
/// Concurrent closed-loop connections (and daemon workers).
const CONNECTIONS: usize = 2;
/// Requests per pass.
const PASS_LEN: u64 = 24;

/// Session trace `i`, relative to the daemon's and this helper's shared
/// working directory.
pub fn trace_path(i: usize) -> String {
    format!("t{i}.wpt")
}

/// One request of the sequence and its latency class.
#[derive(Debug, Clone)]
struct Item {
    class: &'static str,
    req: Request,
}

impl Item {
    fn work(class: &'static str, op: Option<ExpOp>, argv: Vec<String>) -> Self {
        let req = match (class, op) {
            (_, Some(op)) => Request::Experiment { op, argv },
            ("sweep", None) => Request::Sweep { argv },
            ("scenario", None) => Request::Scenario { argv },
            _ => Request::Profile { argv },
        };
        Self { class, req }
    }

    fn argv(&self) -> &[String] {
        match &self.req {
            Request::Experiment { argv, .. }
            | Request::Profile { argv }
            | Request::Sweep { argv }
            | Request::Scenario { argv } => argv,
            _ => &[],
        }
    }

    fn is_light(&self) -> bool {
        matches!(self.class, "status" | "profile_hit")
    }

    fn argv_mut(&mut self) -> Option<&mut Vec<String>> {
        match &mut self.req {
            Request::Experiment { argv, .. }
            | Request::Profile { argv }
            | Request::Sweep { argv }
            | Request::Scenario { argv } => Some(argv),
            _ => None,
        }
    }

    /// The value after `--out`, if any.
    fn out_mut(&mut self) -> Option<&mut String> {
        let argv = self.argv_mut()?;
        let i = argv.iter().position(|a| a == "--out")?;
        argv.get_mut(i + 1)
    }

    /// The request minus its output file: repeats of one request must
    /// return the same reply wherever they write.
    fn repeat_key(&self) -> String {
        let mut item = self.clone();
        if let Some(out) = item.out_mut() {
            out.clear();
        }
        item.req.to_line()
    }
}

fn strings(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| s.to_string()).collect()
}

/// The requests of pass `pass`, in an order drawn from the seed and the
/// pass. Every pass has the same requests except the memo-miss profile
/// keys, which change so they miss in every pass.
///
/// Pass 0, the warm-up that set-up time includes, ignores the seed: its
/// order and keys are the same in every session, so set-up time does not
/// hang on which jobs a seed happens to overlap.
fn pass_items(seed: u64, pass: u64, scenario: &str) -> Vec<Item> {
    let seed = if pass == 0 { 0 } else { seed };
    let (warmup, measure) = (SERVE_WARMUP.to_string(), RECORD_MEASURE.to_string());
    let mut items = Vec::new();
    for (t, scheme) in [(0, "LRU"), (0, "Whirlpool"), (1, "Whirlpool"), (2, "LRU")] {
        let argv = strings(&[&trace_path(t), "--scheme", scheme]);
        items.push(Item::work("replay", Some(ExpOp::Replay), argv));
    }
    for (k, app) in RECORD_APPS.iter().enumerate() {
        let out = format!("rec{k}.wpt");
        let argv = strings(&[
            app,
            "--scheme",
            "LRU",
            "--warmup",
            &warmup,
            "--measure",
            &measure,
            "--out",
            &out,
        ]);
        items.push(Item::work("record", Some(ExpOp::Record), argv));
    }
    // The memo key is the argv: a granule no other pass uses makes a miss
    // that costs the same Mattson/SHARDS work every pass. Every session
    // uses the same granules in pass order (the seed only deals them to
    // the four profiles), so the memo holds the same bytes whatever the
    // seed.
    for (m, (t, rate)) in [(0, None), (1, None), (0, Some("0.1")), (2, Some("0.1"))]
        .into_iter()
        .enumerate()
    {
        let granule = 64 + 4 * pass + (m as u64 + seed) % 4;
        let mut argv = strings(&[&trace_path(t), "--json"]);
        if let Some(r) = rate {
            argv.extend(strings(&["--sample-rate", r]));
        }
        argv.extend(strings(&["--granule", &granule.to_string()]));
        items.push(Item::work("profile_miss", None, argv));
    }
    let sweep = strings(&[
        "--apps",
        "mcf,delaunay",
        "--schemes",
        "LRU,Whirlpool",
        "--warmup",
        "200000",
        "--measure",
        "2000000",
        "--jobs",
        "1",
    ]);
    let sweep = Item::work("sweep", None, sweep);
    let scenario = Item::work("scenario", None, strings(&[scenario, "--jobs", "1"]));
    // Light: a quarter `status`, the rest memo hits, so the light median
    // sits inside the memo-hit latencies rather than between two modes.
    for _ in 0..3 {
        items.push(Item {
            class: "status",
            req: Request::Status,
        });
    }
    for i in 0..9 {
        let argv = strings(&[&trace_path(i % 3), "--json", "--sample-rate", "0.1"]);
        items.push(Item::work("profile_hit", None, argv));
    }
    // Seeded Fisher-Yates over the rest. The two largest jobs keep fixed
    // places half a pass apart, so they never run at the same time and
    // the daemon's peak memory does not hang on the draw.
    let mut state = wp_fault::splitmix64(seed).wrapping_add(pass);
    for i in (1..items.len()).rev() {
        state = wp_fault::splitmix64(state);
        items.swap(i, (state % (i as u64 + 1)) as usize);
    }
    items.insert(0, scenario);
    items.insert(PASS_LEN as usize / 2, sweep);
    debug_assert_eq!(items.len() as u64, PASS_LEN);
    items
}

/// One request's outcome; `index` is its place in the sequence.
struct Sample {
    index: u64,
    item: Item,
    start_s: f64,
    latency_s: f64,
    ack_s: Option<f64>,
    result: Result<Vec<String>, String>,
}

fn send(
    client: &mut Client,
    item: &Item,
    traced: bool,
) -> (Option<f64>, Result<Vec<String>, String>) {
    if !item.req.is_work() {
        return (None, client.call(&item.req).map(|_| Vec::new()));
    }
    if !traced {
        return (None, client.run(&item.req).map(|reply| reply.lines));
    }
    // Traced: read the ack frame on its own to time the daemon's
    // accept-and-queue step.
    let start = Instant::now();
    let mut ack = None;
    let r = client.send_line(&item.req.to_line()).and_then(|()| {
        let frame = client.read_frame()?;
        ack = Some(start.elapsed().as_secs_f64());
        let doc = parse(&frame).map_err(|e| format!("malformed daemon frame: {e}"))?;
        match doc.get("type").and_then(Json::as_str) {
            Some("ack") => client.collect().map(|reply| reply.lines),
            _ => Err(doc
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or("request refused without an ack")
                .to_string()),
        }
    });
    (ack, r)
}

/// When the connections stop taking requests.
#[derive(Clone, Copy)]
enum Until {
    /// After the request with this sequence index.
    Index(u64),
    /// Once this many seconds have passed.
    Seconds(f64),
}

/// Runs the sequence from index `first` on all connections. Requests that
/// start at or after `trace_from` seconds are traced.
fn run_session(
    clients: &mut [Client],
    seed: u64,
    scenario: &str,
    first: u64,
    until: Until,
    trace_from: Option<f64>,
) -> (f64, Vec<Sample>) {
    let next = AtomicU64::new(first);
    let passes: Mutex<HashMap<u64, Vec<Item>>> = Mutex::new(HashMap::new());
    let start = Instant::now();
    let samples = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let (next, passes) = (&next, &passes);
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let start_s = start.elapsed().as_secs_f64();
                        if let Until::Seconds(s) = until {
                            if start_s >= s {
                                break;
                            }
                        }
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if matches!(until, Until::Index(last) if index > last) {
                            break;
                        }
                        let mut item = passes
                            .lock()
                            .expect("no thread panics holding the pass table")
                            .entry(index / PASS_LEN)
                            .or_insert_with(|| pass_items(seed, index / PASS_LEN, scenario))
                            [(index % PASS_LEN) as usize]
                            .clone();
                        // One capture file per connection: the same record
                        // request of two passes may run at once.
                        if let Some(out) = item.out_mut() {
                            *out = format!("c{c}-{out}");
                        }
                        let traced = trace_from.is_some_and(|t| start_s >= t);
                        let sent = Instant::now();
                        let (ack_s, result) = send(client, &item, traced);
                        out.push(Sample {
                            index,
                            item,
                            start_s,
                            latency_s: sent.elapsed().as_secs_f64(),
                            ack_s,
                            result,
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("session connection thread panicked"))
            .collect::<Vec<_>>()
    });
    (start.elapsed().as_secs_f64(), samples)
}

/// Simulated instructions in a reply that carries a `RunSummary`.
fn summary_instructions(lines: &[String]) -> f64 {
    lines
        .iter()
        .filter_map(|l| parse(l).ok())
        .filter_map(|doc| match doc.get("cores") {
            Some(Json::Arr(cores)) => Some(
                cores
                    .iter()
                    .filter_map(|c| c.get("instructions").and_then(Json::as_f64))
                    .sum::<f64>(),
            ),
            _ => None,
        })
        .sum()
}

/// What the session collects from its samples.
#[derive(Default)]
struct Tally {
    instructions: f64,
    busy_s: f64,
    latency_ms: HashMap<&'static str, Vec<f64>>,
    ack_ms: Vec<f64>,
    /// First reply to each request: repeats must match it.
    reference: HashMap<String, Vec<String>>,
    /// The first pass's heavy requests and replies, re-checked offline and
    /// in run.py.
    first: Vec<(Item, Vec<String>)>,
    /// Sequence index of the first pass's last request.
    first_pass_end: u64,
    failures: Vec<String>,
}

impl Tally {
    fn add(&mut self, s: Sample) {
        let item = &s.item;
        self.busy_s += s.latency_s;
        self.latency_ms
            .entry(item.class)
            .or_default()
            .push(s.latency_s * 1e3);
        self.ack_ms.extend(s.ack_s.map(|a| a * 1e3));
        let lines = match s.result {
            Ok(lines) => lines,
            Err(e) => {
                self.failures
                    .push(format!("request {} ({}) failed: {e}", s.index, item.class));
                return;
            }
        };
        if matches!(item.class, "replay" | "record") {
            self.instructions += summary_instructions(&lines);
        }
        if s.index <= self.first_pass_end && !item.is_light() {
            self.first.push((item.clone(), lines.clone()));
        }
        // Status replies describe the moment and memo-miss keys never
        // repeat; every other request must repeat its first reply.
        if matches!(item.class, "status" | "profile_miss") {
            return;
        }
        let key = item.repeat_key();
        match self.reference.get(&key) {
            Some(first) if *first != lines => self.failures.push(format!(
                "request {} ({}) differs from that request's first reply",
                s.index, item.class
            )),
            Some(_) => {}
            None => {
                self.reference.insert(key, lines);
            }
        }
    }
}

/// The offline form of a served request: same op, its own output file and
/// trace cache.
fn offline_request(item: &Item) -> Request {
    let mut offline = item.clone();
    if let Some(out) = offline.out_mut() {
        *out = format!("offline-{out}");
    }
    if let (Some(argv), "sweep") = (offline.argv_mut(), item.class) {
        argv.extend(strings(&["--cache-dir", "offline-cache"]));
    }
    offline.req
}

/// Re-runs each heavy request of the first pass through the offline op
/// and compares replies; returns each one's op time (median of `reps`) by
/// class. The sweep runs once more first to fill its offline trace cache,
/// as the daemon's is warm.
fn offline_check(
    first: &[(Item, Vec<String>)],
    reps: usize,
    failures: &mut Vec<String>,
) -> Result<HashMap<&'static str, Vec<f64>>, String> {
    let mut op_ms: HashMap<&'static str, Vec<f64>> = HashMap::new();
    for (item, served) in first {
        let req = offline_request(item);
        if item.class == "sweep" {
            ops::run_request(&req, &OpCtx::offline())?;
        }
        let mut matched = true;
        let ms = median_of(reps, || {
            let start = Instant::now();
            let lines = ops::run_request(&req, &OpCtx::offline())?;
            matched &= lines == *served;
            Ok(start.elapsed().as_secs_f64() * 1e3)
        })?;
        op_ms.entry(item.class).or_default().push(ms);
        if !matched {
            failures.push(format!(
                "served {} reply differs from the offline op's output",
                item.class
            ));
        }
    }
    Ok(op_ms)
}

fn ms_map(m: &HashMap<&'static str, Vec<f64>>) -> Obj {
    let mut keys: Vec<_> = m.keys().copied().collect();
    keys.sort_unstable();
    let mut o = Obj::new();
    for k in keys {
        o.nums(k, &m[k]);
    }
    o
}

/// Host ns per event of `profile_streams` over the session traces.
fn profile_ns_per_event(paths: &[&Path], mode: ProfileMode) -> Result<f64, String> {
    let mut events = 0u64;
    let start = Instant::now();
    for path in paths {
        let p = profile_streams(path, &[0], mode).map_err(|e| e.to_string())?;
        events += p.iter().map(|s| s.events).sum::<u64>();
    }
    Ok(start.elapsed().as_nanos() as f64 / events.max(1) as f64)
}

/// The standalone trace and MRC layer timings of the traced session.
fn layer_timings(o: &mut Obj) -> Result<(), String> {
    let names: Vec<String> = (0..SERVE_APPS.len()).map(trace_path).collect();
    let paths: Vec<&Path> = names.iter().map(Path::new).collect();
    let scan_s = median_of(3, || {
        let start = Instant::now();
        for p in &paths {
            TraceInfo::scan(p).map_err(|e| e.to_string())?;
        }
        Ok(start.elapsed().as_secs_f64())
    })?;
    o.num("scan_s", scan_s);
    codec_timings(&paths, o)?;
    o.num(
        "profile_exact_ns_per_event",
        median_of(3, || profile_ns_per_event(&paths, ProfileMode::Exact))?,
    );
    let sampled = ProfileMode::Sampled(ShardsConfig {
        rate: 0.1,
        s_max: None,
    });
    o.num(
        "profile_sampled_ns_per_event",
        median_of(3, || profile_ns_per_event(&paths, sampled))?,
    );
    Ok(())
}

/// The daemon counters the per-layer table reads from the `metrics` verb.
fn daemon_counters(client: &mut Client) -> Result<Obj, String> {
    let frame = client.call(&Request::Metrics)?;
    let doc = parse(&frame).map_err(|e| format!("malformed metrics frame: {e}"))?;
    let counters = doc
        .get("snapshot")
        .and_then(|s| s.get("counters"))
        .ok_or("metrics frame lacks snapshot.counters")?;
    let mut o = Obj::new();
    for name in [
        "curve_store_hits",
        "curve_store_misses",
        "trace_cache_hits",
        "trace_cache_misses",
        "serve_queue_high_water",
    ] {
        let v = counters
            .get(name)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("metrics frame lacks counter {name}"))?;
        o.num(name, v);
    }
    Ok(o)
}

/// `session --socket S --seed N --pass P --seconds X --scenario W
/// [--check] [--traced]`.
///
/// Starts at pass P and takes requests until X seconds have passed (X =
/// 0: exactly pass P, the warm-up). `--check` re-runs the first pass's
/// heavy requests offline; `--traced` traces the requests that start
/// in the second half of the time, times the offline ops (median of
/// three) and adds the standalone layer timings.
pub fn cmd_session(rest: &[String]) -> Result<String, String> {
    let args = Args::parse(
        rest,
        &["--socket", "--seed", "--pass", "--seconds", "--scenario"],
        &["--check", "--traced"],
    )?;
    let socket = Path::new(args.value("--socket").ok_or("session needs --socket S")?);
    let seed = crate::seed_arg(&args)?;
    let pass = args.number("--pass")?.unwrap_or(0);
    let seconds = args.number("--seconds")?.unwrap_or(0) as f64;
    let scenario = args
        .value("--scenario")
        .ok_or("session needs --scenario W")?;
    let traced = args.flag("--traced");

    let mut clients = (0..CONNECTIONS)
        .map(|_| Client::connect(socket))
        .collect::<Result<Vec<_>, String>>()?;
    let first = pass * PASS_LEN;
    let until = if seconds == 0.0 {
        Until::Index(first + PASS_LEN - 1)
    } else {
        Until::Seconds(seconds)
    };
    let half = traced.then_some(seconds / 2.0);
    let (elapsed, samples) = run_session(&mut clients, seed, scenario, first, until, half);

    let mut tally = Tally {
        first_pass_end: first + PASS_LEN - 1,
        ..Tally::default()
    };
    let requests = samples.len() as u64;
    let untraced = samples
        .iter()
        .filter(|s| half.is_some_and(|h| s.start_s < h))
        .count();
    for s in samples {
        tally.add(s);
    }

    let mut o = Obj::new();
    o.int("pass_len", PASS_LEN);
    o.int("requests", requests);
    o.num("elapsed_s", elapsed);
    o.num("instructions", tally.instructions);
    o.num("idle_s", CONNECTIONS as f64 * elapsed - tally.busy_s);
    o.obj("latency_ms", ms_map(&tally.latency_ms));
    o.obj("counters", daemon_counters(&mut clients[0])?);
    // run.py checks the simulated outputs against the traces' event counts.
    let replies: Vec<Obj> = tally
        .first
        .iter()
        .filter(|(item, _)| matches!(item.class, "replay" | "profile_miss"))
        .map(|(item, lines)| {
            let mut r = Obj::new();
            r.str("class", item.class);
            r.str("trace", &item.argv()[0]);
            r.strs("lines", lines);
            r
        })
        .collect();
    o.objs("replies", replies);
    let mut failures = std::mem::take(&mut tally.failures);
    if args.flag("--check") {
        let op_ms = offline_check(&tally.first, if traced { 3 } else { 1 }, &mut failures)?;
        o.obj("op_ms", ms_map(&op_ms));
    }
    if let Some(h) = half {
        o.int("untraced_requests", untraced as u64);
        o.num("untraced_s", h);
        o.num("traced_s", elapsed - h);
        o.nums("ack_ms", &tally.ack_ms);
        layer_timings(&mut o)?;
    }
    o.strs("failures", &failures);
    Ok(o.finish())
}
