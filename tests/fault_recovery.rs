//! The fault-injection proof obligation, end to end: under any injected
//! fault the stack either returns one typed error line or transparently
//! recovers — and whenever it recovers, the eventual successful output
//! is byte-identical to a fault-free run.
//!
//! Covers the self-healing trace cache (real on-disk corruption and
//! injected reader faults, offline and through the daemon), worker
//! panic isolation at the daemon level, and a daemon-side socket drop
//! surfacing as the typed retryable error class.
//!
//! Every test holds [`wp_fault::test_guard`] for its whole body — those
//! that arm the process-global fault layer and those that expect a
//! fault-free run alike — so in-binary test threads never see each
//! other's arms.

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;

use wp_serve::client::is_shutdown_error;
use wp_serve::ops::{self, OpCtx};
use wp_serve::protocol::Request;
use wp_serve::{Client, ServeConfig, Server};

struct Daemon {
    socket: PathBuf,
    base: PathBuf,
    shutdown: std::sync::Arc<std::sync::atomic::AtomicBool>,
    thread: Option<std::thread::JoinHandle<Result<(), String>>>,
}

impl Daemon {
    /// Binds an in-process daemon on fresh temp dirs and serves it on a
    /// background thread.
    fn start(tag: &str, workers: usize) -> Self {
        let base = std::env::temp_dir().join(format!("wp-fault-rec-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let socket = base.join("wp.sock");
        let mut config = ServeConfig::new(&socket);
        config.cache_dir = base.join("cache");
        config.state_dir = base.join("state");
        config.workers = workers;
        let server = Server::bind(&config).expect("bind daemon");
        let shutdown = server.shutdown_flag();
        let thread = std::thread::spawn(move || server.run());
        Self {
            socket,
            base,
            shutdown,
            thread: Some(thread),
        }
    }

    fn client(&self) -> Client {
        Client::connect(&self.socket).expect("connect to daemon")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            t.join().expect("daemon thread").expect("daemon run");
        }
        let _ = std::fs::remove_dir_all(&self.base);
    }
}

fn strs(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

/// A small sweep whose one capture lands in `cache_dir`.
fn sweep_req(cache_dir: &Path) -> Request {
    Request::Sweep {
        argv: strs(&[
            "--apps",
            "mcf",
            "--schemes",
            "LRU,Whirlpool",
            "--warmup",
            "20000",
            "--measure",
            "150000",
            "--cache-dir",
            cache_dir.to_str().unwrap(),
        ]),
    }
}

/// The daemon-side variant: same grid, daemon-owned cache.
fn served_sweep_req() -> Request {
    Request::Sweep {
        argv: strs(&[
            "--apps",
            "mcf",
            "--schemes",
            "LRU,Whirlpool",
            "--warmup",
            "20000",
            "--measure",
            "150000",
        ]),
    }
}

/// The single `.wpt` file a warmed cache dir holds.
fn cached_trace(cache_dir: &Path) -> PathBuf {
    let mut wpts: Vec<PathBuf> = std::fs::read_dir(cache_dir)
        .expect("cache dir exists after a sweep")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "wpt"))
        .collect();
    assert_eq!(wpts.len(), 1, "one app sweeps to one capture: {wpts:?}");
    wpts.pop().unwrap()
}

fn truncate_to_half(path: &Path) {
    let len = std::fs::metadata(path).expect("cached trace").len();
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(path)
        .expect("open cached trace");
    f.set_len(len / 2).expect("truncate cached trace");
}

fn flip_one_bit(path: &Path) {
    let mut bytes = std::fs::read(path).expect("read cached trace");
    let at = bytes.len() / 2;
    bytes[at] ^= 0x10;
    std::fs::write(path, bytes).expect("write corrupted trace");
}

#[test]
fn corrupted_cache_heals_offline_with_byte_identical_output() {
    let _guard = wp_fault::test_guard();
    let base = std::env::temp_dir().join(format!("wp-fault-rec-{}-offline", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let cache = base.join("cache");
    let req = sweep_req(&cache);
    let baseline = ops::run_request(&req, &OpCtx::offline()).expect("warming sweep");

    // Truncation: the cached capture loses its tail mid-file.
    truncate_to_half(&cached_trace(&cache));
    let healed = ops::run_request(&req, &OpCtx::offline()).expect("sweep over truncated cache");
    assert_eq!(
        healed, baseline,
        "recovery from truncation must reproduce the fault-free bytes"
    );

    // Bit rot: one flipped bit mid-file, caught by the per-block CRC.
    flip_one_bit(&cached_trace(&cache));
    let healed = ops::run_request(&req, &OpCtx::offline()).expect("sweep over bit-flipped cache");
    assert_eq!(
        healed, baseline,
        "recovery from a bit flip must reproduce the fault-free bytes"
    );

    // The heal re-captured: the cache holds a readable trace again.
    let trace = cached_trace(&cache);
    wp_trace::TraceInfo::scan(&trace).expect("re-captured trace is intact");
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn corrupted_cache_heals_through_the_daemon_and_its_warm_index() {
    let _guard = wp_fault::test_guard();
    let daemon = Daemon::start("healcache", 2);
    let req = served_sweep_req();
    let baseline = daemon.client().run(&req).expect("warming served sweep");

    // Corrupt the daemon's own cached capture behind its back. The warm
    // index still says "cached", so the healing path must run: evict
    // (file AND index entry), re-capture, retry.
    flip_one_bit(&cached_trace(&daemon.base.join("cache")));
    let healed = daemon
        .client()
        .run(&req)
        .expect("served sweep over corrupt cache");
    assert_eq!(
        healed.lines, baseline.lines,
        "daemon recovery must reproduce the fault-free bytes"
    );

    // And again from warm state, proving the index was re-seeded
    // honestly rather than left pointing at the evicted file.
    let warm = daemon.client().run(&req).expect("follow-up served sweep");
    assert_eq!(warm.lines, baseline.lines);
}

#[test]
fn injected_reader_fault_heals_with_byte_identical_output() {
    let _guard = wp_fault::test_guard();
    let base = std::env::temp_dir().join(format!("wp-fault-rec-{}-reader", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let cache = base.join("cache");
    let req = sweep_req(&cache);
    let baseline = ops::run_request(&req, &OpCtx::offline()).expect("warming sweep");

    // Each reader fault class in turn: the armed shot fires once on the
    // cached-trace open, the sweep evicts + re-captures, and the retry
    // (arm now spent) must land on the fault-free bytes.
    for spec in [
        "reader-io@1:42",
        "reader-truncate@1:43",
        "reader-bitflip@1:44",
    ] {
        wp_fault::install(wp_fault::FaultPlan::parse(spec).expect("valid spec"));
        let healed = ops::run_request(&req, &OpCtx::offline())
            .unwrap_or_else(|e| panic!("sweep under {spec} must self-heal, got: {e}"));
        assert_eq!(
            healed, baseline,
            "recovery from {spec} must reproduce the fault-free bytes"
        );
    }
    wp_fault::clear();
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn injected_worker_panic_leaves_the_daemon_serving_identical_bytes() {
    let _guard = wp_fault::test_guard();
    let daemon = Daemon::start("panic", 1);
    let req = served_sweep_req();
    let baseline = daemon.client().run(&req).expect("warming served sweep");

    wp_fault::install(wp_fault::FaultPlan::parse("worker-panic@1:7").expect("valid spec"));
    let err = daemon
        .client()
        .run(&req)
        .expect_err("an injected worker panic must surface as an error frame");
    wp_fault::clear();
    assert!(!err.contains('\n'), "one-line typed error: {err:?}");
    assert!(
        err.contains("worker panicked") && err.contains("injected"),
        "names the panic class: {err}"
    );

    // The daemon survived its worker's panic: the very next request on
    // the same worker pool completes with the fault-free bytes.
    let after = daemon.client().run(&req).expect("post-panic served sweep");
    assert_eq!(
        after.lines, baseline.lines,
        "post-panic output must be byte-identical to the fault-free run"
    );
}

#[test]
fn daemon_side_socket_drop_is_the_typed_retryable_error_class() {
    let _guard = wp_fault::test_guard();
    let daemon = Daemon::start("sockdrop", 1);
    let req = Request::Status;
    let baseline = daemon.client().call(&req).expect("fault-free status");

    // The daemon tears the very first reply frame mid-write.
    wp_fault::install(wp_fault::FaultPlan::parse("sock-drop@1:9").expect("valid spec"));
    let err = daemon
        .client()
        .call(&req)
        .expect_err("a torn frame must surface as an error");
    wp_fault::clear();
    assert!(
        is_shutdown_error(&err),
        "torn frames map to the retryable shutdown class: {err}"
    );

    // One dropped connection, zero daemon damage: the next client gets
    // the identical full frame again (status counts no sync verbs, so
    // the frame is deterministic across the drop).
    let after = daemon.client().call(&req).expect("post-drop status");
    assert_eq!(
        after, baseline,
        "post-drop status frame diverged from fault-free"
    );
}
