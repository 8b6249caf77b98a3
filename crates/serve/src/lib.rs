//! `wp-serve`: the resident experiment service.
//!
//! The batch pipeline pays process startup, registry rebuild, and cold
//! trace capture on every invocation. This crate makes the harness
//! resident instead: a unix-domain-socket daemon with a
//! listener/dispatcher/store split —
//!
//! * [`listener`] — binds the socket, accepts connections, and frames
//!   line-delimited JSON requests/responses; graceful shutdown on
//!   SIGINT, SIGTERM, or the `shutdown` verb (drain jobs, flush the
//!   log, unlink the socket).
//! * [`dispatcher`] — a bounded job queue over a small worker pool,
//!   with per-job ids, cooperative cancellation threaded through
//!   `Experiment` and the sweep cell loops, optional per-job wall-clock
//!   timeouts, and `catch_unwind` isolation so a panicking job becomes
//!   one typed error frame instead of a dead worker.
//! * [`store`] — the state worth being resident for: memoized MRC
//!   curve payloads and the append-only JSONL result log, next to the
//!   `WP_TRACE_CACHE` directory served sweeps capture into.
//!
//! The [`ops`] layer is the refactor's hinge: every `trace_tool`
//! subcommand body lives there once, returning stdout *lines*, so the
//! offline CLI, the daemon, and the thin [`client`] all run the same
//! code and produce byte-identical output. The protocol itself is in
//! [`protocol`]; [`signal`] holds the one audited `unsafe` block in the
//! workspace (a `signal(2)` registration storing to an atomic).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod dispatcher;
pub mod listener;
pub mod ops;
pub mod protocol;
pub mod signal;
pub mod store;

pub use client::{Client, Reply};
pub use dispatcher::{Dispatcher, JobEvent};
pub use listener::{ServeConfig, Server};
pub use ops::OpCtx;
pub use protocol::{ExpOp, Request};
pub use store::ServeStore;
