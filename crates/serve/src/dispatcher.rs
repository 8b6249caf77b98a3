//! The dispatcher: a bounded job queue feeding a small worker pool.
//!
//! Work requests (`experiment`, `profile`, `sweep`) are queued with a
//! fresh job id and a [`CancelToken`]; synchronous verbs never enter the
//! queue. Each submitted job hands back an [`mpsc::Receiver`] of
//! [`JobEvent`]s that the connection thread frames onto the wire, so a
//! slow client never blocks a worker — events buffer in the channel.
//!
//! Cancellation is cooperative end to end: `cancel` fires the job's
//! token, and the harness/sweep checkpoints abort the run at the next
//! cell or experiment boundary with `HarnessError::Cancelled`. A token
//! registry keyed by job id covers both queued jobs (cancelled before a
//! worker ever picks them up) and running ones.
//!
//! Telemetry: `serve_requests_accepted/completed/cancelled` count job
//! outcomes, `serve_queue_high_water` records the deepest the pending
//! queue ever got (via [`wp_obs::record_max`]).

use std::collections::{HashMap, VecDeque};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use whirlpool_repro::harness::{panic_message, CancelToken};

use crate::ops::{self, OpCtx};
use crate::protocol::Request;
use crate::store::ServeStore;

/// One event in a job's response stream.
#[derive(Debug, Clone, PartialEq)]
pub enum JobEvent {
    /// One line of the op's stdout, verbatim.
    Line(String),
    /// The op finished cleanly after emitting `lines` lines.
    Done {
        /// How many [`JobEvent::Line`]s preceded this.
        lines: usize,
    },
    /// The op failed (or was cancelled).
    Error {
        /// Whether the failure was a fired cancel token.
        cancelled: bool,
        /// The op's one-line error message.
        message: String,
    },
}

struct Job {
    id: u64,
    req: Request,
    cancel: CancelToken,
    tx: mpsc::Sender<JobEvent>,
}

struct QueueState {
    pending: VecDeque<Job>,
    /// Cancel tokens for every queued *and* running job.
    tokens: HashMap<u64, CancelToken>,
    /// Verb labels for the status job table, same key set as `tokens`.
    verbs: HashMap<u64, String>,
    next_id: u64,
    running: usize,
    completed: u64,
    cancelled: u64,
    shutting_down: bool,
}

struct Inner {
    state: Mutex<QueueState>,
    wake: Condvar,
    store: Arc<ServeStore>,
    capacity: usize,
    /// Wall-clock budget armed on each job's cancel token as a worker
    /// picks it up; `None` = unbounded (the historical behaviour).
    job_timeout: Option<Duration>,
}

/// The job queue plus its worker pool. Constructed once per daemon and
/// shared behind an `Arc` with every connection thread.
pub struct Dispatcher {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for Dispatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.inner.state.lock().expect("dispatcher state");
        f.debug_struct("Dispatcher")
            .field("pending", &s.pending.len())
            .field("running", &s.running)
            .field("capacity", &self.inner.capacity)
            .finish()
    }
}

impl Dispatcher {
    /// Starts `workers` worker threads over a queue bounded at
    /// `capacity` pending jobs. `job_timeout` is an optional per-job
    /// wall-clock budget: each job's cancel token is armed with the
    /// deadline as a worker picks it up, so a runaway run aborts at its
    /// next cooperative checkpoint and the client gets a typed "timed
    /// out" error frame (distinct from a user cancel) while the daemon
    /// keeps serving.
    pub fn start(
        store: Arc<ServeStore>,
        workers: usize,
        capacity: usize,
        job_timeout: Option<Duration>,
    ) -> Self {
        let inner = Arc::new(Inner {
            state: Mutex::new(QueueState {
                pending: VecDeque::new(),
                tokens: HashMap::new(),
                verbs: HashMap::new(),
                next_id: 1,
                running: 0,
                completed: 0,
                cancelled: 0,
                shutting_down: false,
            }),
            wake: Condvar::new(),
            store,
            capacity: capacity.max(1),
            job_timeout,
        });
        let handles = (0..workers.max(1))
            .map(|n| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("wp-serve-worker-{n}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker thread")
            })
            .collect();
        Self {
            inner,
            workers: Mutex::new(handles),
        }
    }

    /// Queues a work request, returning its job id and event stream.
    ///
    /// # Errors
    ///
    /// A one-line message when the queue is full, the daemon is
    /// shutting down, or the request is not a work verb.
    pub fn submit(&self, req: Request) -> Result<(u64, mpsc::Receiver<JobEvent>), String> {
        if !req.is_work() {
            return Err(format!("'{}' is not a queued work verb", req.verb()));
        }
        let mut s = self.inner.state.lock().expect("dispatcher state");
        if s.shutting_down {
            return Err("daemon is shutting down; request rejected".into());
        }
        if s.pending.len() >= self.inner.capacity {
            return Err(format!(
                "job queue is full ({} pending); retry after a job drains",
                s.pending.len()
            ));
        }
        let id = s.next_id;
        s.next_id += 1;
        let cancel = CancelToken::new();
        s.tokens.insert(id, cancel.clone());
        s.verbs.insert(id, req.verb());
        let (tx, rx) = mpsc::channel();
        s.pending.push_back(Job {
            id,
            req,
            cancel,
            tx,
        });
        wp_obs::add(wp_obs::Counter::ServeRequestsAccepted, 1);
        wp_obs::record_max(wp_obs::Counter::ServeQueueHighWater, s.pending.len() as u64);
        drop(s);
        self.inner.wake.notify_one();
        Ok((id, rx))
    }

    /// Fires job `id`'s cancel token (queued or running). Returns
    /// whether the job was live.
    pub fn cancel(&self, id: u64) -> bool {
        let s = self.inner.state.lock().expect("dispatcher state");
        match s.tokens.get(&id) {
            Some(tok) => {
                tok.cancel();
                true
            }
            None => false,
        }
    }

    /// The `status` verb's payload: queue/runtime counts, the live job
    /// table, and store occupancy.
    pub fn status_json(&self) -> String {
        // Read the cache directory before taking the state lock, so a slow
        // directory never holds up submits.
        let warm_traces = self.inner.store.warm_traces();
        let s = self.inner.state.lock().expect("dispatcher state");
        let mut jobs: Vec<(u64, &String)> = s.verbs.iter().map(|(id, v)| (*id, v)).collect();
        jobs.sort_by_key(|(id, _)| *id);
        let rows: Vec<String> = jobs
            .iter()
            .map(|(id, verb)| {
                let cancelling = s.tokens.get(id).is_some_and(CancelToken::is_cancelled);
                format!(
                    "{{\"id\":{id},\"verb\":{},\"cancelling\":{cancelling}}}",
                    wp_obs::json::quote(verb)
                )
            })
            .collect();
        format!(
            "{{\"type\":\"status\",\"queue_depth\":{},\"running\":{},\"completed\":{},\
             \"cancelled\":{},\"warm_traces\":{},\"curves\":{},\"jobs\":[{}]}}",
            s.pending.len(),
            s.running,
            s.completed,
            s.cancelled,
            warm_traces,
            self.inner.store.curves_held(),
            rows.join(","),
        )
    }

    /// Begins shutdown: rejects new work, fires every live job's cancel
    /// token, and wakes the workers so the queue drains through the
    /// cancellation checkpoints (each queued job still reports an
    /// `error` frame to its client instead of vanishing).
    pub fn begin_shutdown(&self) {
        let s = self.inner.state.lock().expect("dispatcher state");
        if s.shutting_down {
            return;
        }
        for tok in s.tokens.values() {
            tok.cancel();
        }
        let mut s = s;
        s.shutting_down = true;
        drop(s);
        self.inner.wake.notify_all();
    }

    /// Waits for the queue to drain and every worker to exit. Call after
    /// [`Self::begin_shutdown`].
    pub fn join(&self) {
        let handles: Vec<_> = self
            .workers
            .lock()
            .expect("worker handles")
            .drain(..)
            .collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let job = {
            let mut s = inner.state.lock().expect("dispatcher state");
            loop {
                if let Some(job) = s.pending.pop_front() {
                    s.running += 1;
                    break job;
                }
                if s.shutting_down {
                    return;
                }
                s = inner.wake.wait(s).expect("dispatcher state");
            }
        };
        if let Some(budget) = inner.job_timeout {
            job.cancel.set_deadline_in(Some(budget));
        }
        let ctx = OpCtx {
            store: Some(Arc::clone(&inner.store)),
            cancel: Some(job.cancel.clone()),
        };
        // Worker isolation: a panicking op fails its own job with a
        // typed one-line error; the worker thread (and the daemon)
        // keep serving. The fault probes sit inside the unwind scope
        // so an injected panic exercises exactly this path.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if wp_fault::fire(wp_fault::FaultPoint::WorkerPanic).is_some() {
                wp_obs::add(wp_obs::Counter::FaultsInjected, 1);
                panic!("injected worker fault");
            }
            if let Some(shot) = wp_fault::fire(wp_fault::FaultPoint::WorkerSlow) {
                wp_obs::add(wp_obs::Counter::FaultsInjected, 1);
                std::thread::sleep(Duration::from_millis(shot.millis));
            }
            ops::run_request(&job.req, &ctx)
        }))
        .unwrap_or_else(|payload| {
            wp_obs::add(wp_obs::Counter::ServeWorkerPanics, 1);
            Err(format!("worker panicked: {}", panic_message(payload)))
        });
        // A deadline-fired token surfaces as `Cancelled` from the run's
        // checkpoints; relabel it so clients can tell a daemon-imposed
        // timeout from a user cancel (and it is counted separately).
        let timed_out = job.cancel.timed_out();
        let result = match result {
            Err(_) if timed_out => {
                wp_obs::add(wp_obs::Counter::ServeJobTimeouts, 1);
                let ms = inner.job_timeout.map_or(0, |d| d.as_millis());
                Err(format!(
                    "job {} timed out after {ms}ms and was cancelled",
                    job.id
                ))
            }
            r => r,
        };
        let mut s = inner.state.lock().expect("dispatcher state");
        s.running -= 1;
        s.tokens.remove(&job.id);
        s.verbs.remove(&job.id);
        let verb = job.req.verb();
        match &result {
            Ok(lines) => {
                s.completed += 1;
                wp_obs::add(wp_obs::Counter::ServeRequestsCompleted, 1);
                inner.store.log_line(&format!(
                    "{{\"job\":{},\"verb\":{},\"ok\":true,\"lines\":{}}}",
                    job.id,
                    wp_obs::json::quote(&verb),
                    lines.len(),
                ));
            }
            Err(message) => {
                // A timed-out job is an outcome the daemon imposed, not
                // a user cancel: log and count it as completed-with-
                // error so `cancelled` keeps meaning "someone asked".
                let cancelled = job.cancel.is_cancelled() && !timed_out;
                if cancelled {
                    s.cancelled += 1;
                    wp_obs::add(wp_obs::Counter::ServeRequestsCancelled, 1);
                } else {
                    s.completed += 1;
                    wp_obs::add(wp_obs::Counter::ServeRequestsCompleted, 1);
                }
                inner.store.log_line(&format!(
                    "{{\"job\":{},\"verb\":{},\"ok\":false,\"cancelled\":{cancelled},\
                     \"error\":{}}}",
                    job.id,
                    wp_obs::json::quote(&verb),
                    wp_obs::json::quote(message),
                ));
            }
        }
        drop(s);
        // A vanished client just drops the events; the job itself (and
        // its result-log line) completed either way.
        match result {
            Ok(lines) => {
                let n = lines.len();
                for line in lines {
                    let _ = job.tx.send(JobEvent::Line(line));
                }
                let _ = job.tx.send(JobEvent::Done { lines: n });
            }
            Err(message) => {
                let _ = job.tx.send(JobEvent::Error {
                    cancelled: job.cancel.is_cancelled() && !timed_out,
                    message,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ExpOp;

    fn test_store(tag: &str) -> Arc<ServeStore> {
        let base = std::env::temp_dir().join(format!("wp-dispatch-{}-{tag}", std::process::id()));
        Arc::new(ServeStore::open(base.join("cache"), &base.join("state")).unwrap())
    }

    // Every test that starts a `Dispatcher` holds `wp_fault::test_guard`:
    // workers probe the process-wide fault plan, so a job run here while
    // another test's one-shot plan (`worker-panic@1`) is installed would
    // take that shot and fail both tests.

    #[test]
    fn bad_argv_jobs_report_errors_without_killing_workers() {
        let _guard = wp_fault::test_guard();
        let d = Dispatcher::start(test_store("bad"), 1, 4, None);
        let (id, rx) = d
            .submit(Request::Experiment {
                op: ExpOp::Replay,
                argv: vec!["--bogus-flag".into()],
            })
            .unwrap();
        assert_eq!(id, 1);
        match rx.recv().unwrap() {
            JobEvent::Error { cancelled, message } => {
                assert!(!cancelled);
                assert!(message.contains("bogus"), "message: {message}");
            }
            other => panic!("expected an error event, got {other:?}"),
        }
        // The worker survived and picks up the next job.
        let (id2, rx2) = d.submit(Request::Profile { argv: vec![] }).unwrap();
        assert_eq!(id2, 2);
        assert!(matches!(rx2.recv().unwrap(), JobEvent::Error { .. }));
        d.begin_shutdown();
        d.join();
    }

    #[test]
    fn queue_capacity_and_shutdown_reject_new_work() {
        let _guard = wp_fault::test_guard();
        let d = Dispatcher::start(test_store("cap"), 1, 1, None);
        // Saturate the single worker with a job that blocks long enough
        // to let a second one sit in the queue (a real-but-tiny run
        // would race; a pre-cancelled one is deterministic and instant,
        // so instead pile jobs faster than needed: fill the queue while
        // the worker is busy with the first pop).
        d.begin_shutdown();
        let err = d.submit(Request::Profile { argv: vec![] }).unwrap_err();
        assert!(err.contains("shutting down"), "err: {err}");
        d.join();
        let s = d.inner.state.lock().unwrap();
        assert!(s.pending.is_empty() && s.running == 0, "drained");
    }

    #[test]
    fn injected_worker_panic_fails_one_job_and_keeps_the_daemon_serving() {
        let _guard = wp_fault::test_guard();
        wp_fault::install(wp_fault::FaultPlan::parse("worker-panic@1:1").unwrap());
        let d = Dispatcher::start(test_store("panic"), 1, 4, None);
        let (_, rx) = d.submit(Request::Profile { argv: vec![] }).unwrap();
        match rx.recv().unwrap() {
            JobEvent::Error { cancelled, message } => {
                assert!(!cancelled);
                assert!(
                    message.contains("worker panicked") && message.contains("injected"),
                    "message: {message}"
                );
            }
            other => panic!("expected an error event, got {other:?}"),
        }
        wp_fault::clear();
        // The same (sole) worker thread survived the unwind and serves
        // the follow-up request; its failure is an argv error, not a
        // panic.
        let (_, rx2) = d.submit(Request::Profile { argv: vec![] }).unwrap();
        match rx2.recv().unwrap() {
            JobEvent::Error { message, .. } => {
                assert!(!message.contains("panicked"), "message: {message}");
            }
            other => panic!("expected an error event, got {other:?}"),
        }
        d.begin_shutdown();
        d.join();
    }

    #[test]
    fn slow_jobs_blow_the_wall_clock_budget_with_a_typed_timeout() {
        let _guard = wp_fault::test_guard();
        wp_fault::install(wp_fault::FaultPlan::parse("worker-slow@1=150:1").unwrap());
        let d = Dispatcher::start(test_store("timeout"), 1, 4, Some(Duration::from_millis(40)));
        let (id, rx) = d
            .submit(Request::Sweep {
                argv: vec![
                    "--apps".into(),
                    "mcf".into(),
                    "--schemes".into(),
                    "LRU".into(),
                ],
            })
            .unwrap();
        match rx.recv().unwrap() {
            JobEvent::Error { cancelled, message } => {
                // Typed and distinct from a user cancel.
                assert!(!cancelled);
                assert!(
                    message.contains(&format!("job {id} timed out after 40ms")),
                    "message: {message}"
                );
            }
            other => panic!("expected a timeout error, got {other:?}"),
        }
        wp_fault::clear();
        d.begin_shutdown();
        d.join();
    }

    #[test]
    fn cancel_hits_queued_jobs_before_a_worker_runs_them() {
        let _guard = wp_fault::test_guard();
        let d = Dispatcher::start(test_store("cxl"), 1, 8, None);
        // Submit, immediately cancel, and verify the job reports
        // `cancelled` regardless of whether the worker had started it:
        // the ops layer's first checkpoint fires before any real work.
        let (id, rx) = d
            .submit(Request::Experiment {
                op: ExpOp::Record,
                argv: vec![
                    "mcf".into(),
                    "--out".into(),
                    std::env::temp_dir()
                        .join(format!("wp-dispatch-cxl-{}.wpt", std::process::id()))
                        .display()
                        .to_string(),
                ],
            })
            .unwrap();
        assert!(d.cancel(id));
        // Unknown ids report false.
        assert!(!d.cancel(9999));
        let mut cancelled_seen = false;
        while let Ok(ev) = rx.recv() {
            match ev {
                JobEvent::Error { cancelled, .. } => {
                    cancelled_seen = cancelled;
                    break;
                }
                JobEvent::Done { .. } => break,
                JobEvent::Line(_) => {}
            }
        }
        // The run may have finished before the token was checked (tiny
        // budgets); both outcomes are legal, but if it errored it must
        // be marked cancelled.
        if cancelled_seen {
            let status = d.status_json();
            assert!(status.contains("\"cancelled\":1"), "status: {status}");
        }
        d.begin_shutdown();
        d.join();
    }
}
