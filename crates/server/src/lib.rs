//! # goc-server — Game-of-Coins as a service
//!
//! ROADMAP open item 1: a long-lived server that multiplexes many
//! concurrent scenario/ensemble requests onto the existing
//! work-stealing executor, so the paper's equilibrium analyses become
//! a queryable service instead of a batch job. Built on `std::net`
//! only — the accept loop hands each client to one lightweight session
//! thread; the *compute* parallelism stays where it already lives
//! ([`goc_analysis::ensemble::executor`] via
//! [`goc_analysis::ensemble::run_observed`] and the [`Backend`]'s sweep
//! lowering), so the server adds sessions, not a second thread pool.
//!
//! Production framing, in the spirit of the workspace's
//! `ConfigurationIter::bounded` / `MAX_GATE_MINERS` idioms — *named*
//! refusals, never unbounded growth:
//!
//! * **Admission control** — a bounded in-flight gate
//!   ([`ServerConfig::max_inflight`]) refuses compute requests beyond
//!   the cap with [`RejectReason::InFlightLimit`]; sessions beyond
//!   [`ServerConfig::max_sessions`] are refused at accept with
//!   [`RejectReason::SessionLimit`].
//! * **Per-session budgets** — each session may submit at most
//!   [`ServerConfig::session_budget`] compute requests
//!   ([`RejectReason::SessionBudgetExhausted`]); `Status` is free.
//! * **Request caps** — replica counts above
//!   [`ServerConfig::max_replicas`], populations above
//!   [`ServerConfig::max_miners`] (the `MAX_GATE_MINERS` constant),
//!   and sweeps longer than [`ServerConfig::max_sweep_runs`] are
//!   refused by name before any work is scheduled.
//! * **Graceful shutdown** — `Shutdown` flips the server into
//!   draining: new sessions and new compute requests are refused with
//!   [`RejectReason::Draining`], in-flight work runs to completion,
//!   and [`Server::run`] returns a [`ServerSummary`].
//! * **Observability** — one [`goc_telemetry::Observe`] handle
//!   ([`Server::bind_observed`]) collects the server's metrics and
//!   request spans and is handed to every ensemble and backend call;
//!   every session lane carries the wire correlation id, so a drained
//!   trace reconstructs per-request timelines admit → compute → reply;
//!   [`HttpExporter`] scrapes `/metrics`, `/healthz`, and `/trace` over
//!   plain HTTP GET. A panic anywhere in a compute request, admission
//!   included, becomes a `Response::Error`.
//! * **Universe reuse** — the server owns one
//!   [`goc_analysis::ensemble::Universes`] slot and hands it to every
//!   `RunEnsemble`, so consecutive requests over the same population
//!   fork the universe the last one built instead of rebuilding it. One
//!   slot bounds the memory: at most one universe beyond those held by
//!   requests in flight.
//!
//! ```no_run
//! use goc_server::{Server, ServerConfig};
//!
//! let config = ServerConfig::default();
//! let server = Server::bind(config, Box::new(goc_server::EnsembleOnlyBackend))?;
//! println!("listening on {}", server.local_addr()?);
//! let summary = server.run()?;
//! println!("served {} requests", summary.served);
//! # Ok::<(), goc_server::ServerError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod backend;
mod config;
mod http;
mod server;

pub use backend::{Backend, EnsembleOnlyBackend};
pub use config::{ConfigError, ServerConfig, MAX_GATE_MINERS};
pub use http::HttpExporter;
pub use server::{Server, ServerError, ServerSummary};

// Re-exported so server users and tests name rejection reasons without
// a separate goc-proto import.
pub use goc_proto::RejectReason;
