//! The wire protocol: line-delimited JSON, both directions.
//!
//! Every request and every response is one JSON object per line. The
//! framing is deliberately boring — the workspace's one JSON codec,
//! [`wp_obs::json`], encodes and decodes it, so the daemon adds no
//! dependencies and both ends share one lossless string escape.
//!
//! Requests (client → daemon):
//!
//! ```text
//! {"verb":"experiment","op":"record|replay|obs","argv":[...]}
//! {"verb":"profile","argv":[...]}
//! {"verb":"sweep","argv":[...]}
//! {"verb":"scenario","argv":[...]}
//! {"verb":"status"}
//! {"verb":"metrics"}
//! {"verb":"cancel","job":N}
//! {"verb":"shutdown"}
//! ```
//!
//! `argv` is exactly the offline subcommand's argument vector, which is
//! what makes the client a *thin* wrapper: the daemon hands it to the
//! same [`ops`](crate::ops) functions the offline paths run.
//!
//! Responses (daemon → client), streamed as JSONL:
//!
//! ```text
//! {"type":"ack","job":N}                 work accepted, id assigned
//! {"type":"line","job":N,"data":"..."}   one line of the op's stdout
//! {"type":"done","job":N,"lines":K}      op finished cleanly
//! {"type":"error","job":N,"cancelled":B,"message":"..."}
//! {"type":"status",...} / {"type":"metrics",...} / {"type":"cancelled",...}
//! {"type":"shutdown"}
//! ```
//!
//! `line` frames carry the op's output verbatim (minus the trailing
//! newline), so a client that prints each `data` with `println!` emits
//! bytes identical to the offline invocation — the determinism contract
//! `tests/serve_determinism.rs` locks down.

use wp_obs::json::{parse, quote, Json};

/// Which [`Experiment`](whirlpool_repro::harness::Experiment)-backed
/// subcommand an `experiment` request runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExpOp {
    /// `trace_tool record` — run and capture to a `.wpt`.
    Record,
    /// `trace_tool replay` — drive a recording through schemes.
    Replay,
    /// `trace_tool obs` — one observed run, JSONL timeline out.
    Obs,
}

impl ExpOp {
    fn label(self) -> &'static str {
        match self {
            ExpOp::Record => "record",
            ExpOp::Replay => "replay",
            ExpOp::Obs => "obs",
        }
    }
}

/// The largest `cancel` job id a request can name: 2^53, past which an
/// `f64` no longer holds every integer.
const MAX_EXACT_JOB: f64 = 9_007_199_254_740_992.0;

/// One decoded request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// A queued experiment run (`record`/`replay`/`obs` argv).
    Experiment {
        /// Which subcommand shape the argv follows.
        op: ExpOp,
        /// The offline subcommand's argument vector, verbatim.
        argv: Vec<String>,
    },
    /// A queued MRC profile (`trace_tool profile` argv).
    Profile {
        /// The offline subcommand's argument vector, verbatim.
        argv: Vec<String>,
    },
    /// A queued sweep (`trace_tool sweep` argv).
    Sweep {
        /// The offline subcommand's argument vector, verbatim.
        argv: Vec<String>,
    },
    /// A queued multi-tenant scenario (`trace_tool scenario` argv).
    Scenario {
        /// The offline subcommand's argument vector, verbatim.
        argv: Vec<String>,
    },
    /// Synchronous: queue depth, job table, store occupancy.
    Status,
    /// Synchronous: the `wp_obs` registry snapshot.
    Metrics,
    /// Synchronous: fire job `N`'s cancel token.
    Cancel {
        /// The id from the job's `ack` frame.
        job: u64,
    },
    /// Graceful daemon shutdown.
    Shutdown,
}

impl Request {
    /// The verb label used in job tables and the result log.
    pub fn verb(&self) -> String {
        match self {
            Request::Experiment { op, .. } => format!("experiment:{}", op.label()),
            Request::Profile { .. } => "profile".into(),
            Request::Sweep { .. } => "sweep".into(),
            Request::Scenario { .. } => "scenario".into(),
            Request::Status => "status".into(),
            Request::Metrics => "metrics".into(),
            Request::Cancel { .. } => "cancel".into(),
            Request::Shutdown => "shutdown".into(),
        }
    }

    /// Whether this request goes through the job queue (vs. answered
    /// inline by the connection thread).
    pub fn is_work(&self) -> bool {
        matches!(
            self,
            Request::Experiment { .. }
                | Request::Profile { .. }
                | Request::Sweep { .. }
                | Request::Scenario { .. }
        )
    }

    /// Serializes the request as one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        let argv_json = |argv: &[String]| {
            let items: Vec<String> = argv.iter().map(|a| quote(a)).collect();
            format!("[{}]", items.join(","))
        };
        match self {
            Request::Experiment { op, argv } => format!(
                "{{\"verb\":\"experiment\",\"op\":\"{}\",\"argv\":{}}}",
                op.label(),
                argv_json(argv)
            ),
            Request::Profile { argv } => {
                format!("{{\"verb\":\"profile\",\"argv\":{}}}", argv_json(argv))
            }
            Request::Sweep { argv } => {
                format!("{{\"verb\":\"sweep\",\"argv\":{}}}", argv_json(argv))
            }
            Request::Scenario { argv } => {
                format!("{{\"verb\":\"scenario\",\"argv\":{}}}", argv_json(argv))
            }
            Request::Status => "{\"verb\":\"status\"}".into(),
            Request::Metrics => "{\"verb\":\"metrics\"}".into(),
            Request::Cancel { job } => format!("{{\"verb\":\"cancel\",\"job\":{job}}}"),
            Request::Shutdown => "{\"verb\":\"shutdown\"}".into(),
        }
    }

    /// Decodes one wire line.
    ///
    /// # Errors
    ///
    /// A one-line message for malformed JSON, an unknown verb, or
    /// missing/ill-typed fields — the daemon reports it in an `error`
    /// frame and keeps the connection open.
    pub fn from_line(line: &str) -> Result<Self, String> {
        let doc = parse(line).map_err(|e| format!("bad request JSON: {e}"))?;
        let verb = doc
            .get("verb")
            .and_then(Json::as_str)
            .ok_or("request lacks a string \"verb\"")?;
        let argv = || -> Result<Vec<String>, String> {
            match doc.get("argv") {
                None => Ok(Vec::new()),
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(|v| {
                        v.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| "argv entries must be strings".to_string())
                    })
                    .collect(),
                Some(_) => Err("\"argv\" must be an array of strings".into()),
            }
        };
        match verb {
            "experiment" => {
                let op = match doc.get("op").and_then(Json::as_str) {
                    Some("record") => ExpOp::Record,
                    Some("replay") => ExpOp::Replay,
                    Some("obs") => ExpOp::Obs,
                    Some(other) => return Err(format!("unknown experiment op '{other}'")),
                    None => return Err("experiment requests need an \"op\"".into()),
                };
                Ok(Request::Experiment { op, argv: argv()? })
            }
            "profile" => Ok(Request::Profile { argv: argv()? }),
            "sweep" => Ok(Request::Sweep { argv: argv()? }),
            "scenario" => Ok(Request::Scenario { argv: argv()? }),
            "status" => Ok(Request::Status),
            "metrics" => Ok(Request::Metrics),
            "cancel" => {
                let job = doc
                    .get("job")
                    .and_then(Json::as_f64)
                    .ok_or("cancel requests need a numeric \"job\"")?;
                // Job ids are integers; an `f64` holds every one up to
                // 2^53 exactly, and `as u64` would wrap or truncate
                // anything else into some other job's id.
                if !((0.0..=MAX_EXACT_JOB).contains(&job) && job.fract() == 0.0) {
                    return Err(format!(
                        "cancel \"job\" must be a non-negative integer up to 2^53 (got {job})"
                    ));
                }
                Ok(Request::Cancel { job: job as u64 })
            }
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!(
                "unknown verb '{other}' (expected experiment, profile, sweep, \
                 scenario, status, metrics, cancel, or shutdown)"
            )),
        }
    }
}

/// `{"type":"ack","job":N}`
pub fn ack_frame(job: u64) -> String {
    format!("{{\"type\":\"ack\",\"job\":{job}}}")
}

/// `{"type":"line","job":N,"data":"..."}`
pub fn line_frame(job: u64, data: &str) -> String {
    format!(
        "{{\"type\":\"line\",\"job\":{job},\"data\":{}}}",
        quote(data)
    )
}

/// `{"type":"done","job":N,"lines":K}`
pub fn done_frame(job: u64, lines: usize) -> String {
    format!("{{\"type\":\"done\",\"job\":{job},\"lines\":{lines}}}")
}

/// `{"type":"error","job":N,"cancelled":B,"message":"..."}` — `job` 0
/// means the request never made it into the queue.
pub fn error_frame(job: u64, cancelled: bool, message: &str) -> String {
    format!(
        "{{\"type\":\"error\",\"job\":{job},\"cancelled\":{cancelled},\"message\":{}}}",
        quote(message)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_through_the_wire_encoding() {
        let cases = [
            Request::Experiment {
                op: ExpOp::Replay,
                argv: vec!["/tmp/a.wpt".into(), "--scheme".into(), "LRU".into()],
            },
            Request::Profile {
                argv: vec!["/tmp/with \"quotes\"\n.wpt".into()],
            },
            Request::Sweep { argv: vec![] },
            Request::Scenario {
                argv: vec![
                    "scenarios/smoke.wps".into(),
                    "--schemes".into(),
                    "Memshare".into(),
                ],
            },
            Request::Status,
            Request::Metrics,
            Request::Cancel { job: 42 },
            Request::Shutdown,
        ];
        for req in cases {
            let line = req.to_line();
            assert_eq!(Request::from_line(&line).unwrap(), req, "line: {line}");
        }
    }

    #[test]
    fn malformed_requests_report_one_line_errors() {
        assert!(Request::from_line("not json").is_err());
        assert!(Request::from_line("{\"verb\":\"fly\"}")
            .unwrap_err()
            .contains("unknown verb"));
        assert!(Request::from_line("{\"verb\":\"cancel\"}")
            .unwrap_err()
            .contains("numeric"));
        assert!(Request::from_line("{\"verb\":\"experiment\",\"argv\":[]}")
            .unwrap_err()
            .contains("op"));
    }

    #[test]
    fn cancel_takes_only_exact_non_negative_integer_jobs() {
        for job in ["-1", "1.9", "1e30", "9007199254740993.5", "-0.5", "1e400"] {
            let line = format!("{{\"verb\":\"cancel\",\"job\":{job}}}");
            let err = Request::from_line(&line).unwrap_err();
            assert!(err.contains("non-negative integer"), "{job}: {err}");
            assert!(!err.contains('\n'), "{job}: one-line error");
        }
        for (job, want) in [
            ("0", 0),
            ("7", 7),
            ("1e3", 1000),
            ("9007199254740992", 1 << 53),
        ] {
            let line = format!("{{\"verb\":\"cancel\",\"job\":{job}}}");
            assert_eq!(
                Request::from_line(&line),
                Ok(Request::Cancel { job: want }),
                "{job}"
            );
        }
    }

    #[test]
    fn line_frames_escape_losslessly() {
        let data = "tab\there, \"quote\", backslash \\";
        let frame = line_frame(7, data);
        let doc = parse(&frame).unwrap();
        assert_eq!(doc.get("data").and_then(Json::as_str), Some(data));
        assert_eq!(doc.get("job").and_then(Json::as_f64), Some(7.0));
    }
}
