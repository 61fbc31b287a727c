//! **serve** — the service layer under load: `goc-proto` framing,
//! `goc-server` admission control, and the registry backend, exercised
//! end to end over real TCP.
//!
//! The experiment boots a registry-backed server on an ephemeral port
//! and hammers it with N concurrent clients × M mixed requests
//! (status, ensembles, a sweep, an experiment run, and deliberately
//! over-budget requests). The load plan is a pure function of
//! `(client, request index, seed)`, and the server's admission caps
//! are deterministic — so every response, every named rejection, and
//! the final drain summary are known in advance and checked exactly.
//!
//! Checks:
//!
//! * **zero dropped responses**: every request of every client gets a
//!   terminal frame — nothing times out, nothing is silently lost;
//! * **named rejections**: over-cap replicas/populations and unknown
//!   experiments come back as `replica_cap` / `population_cap` /
//!   `unknown_experiment`, never as errors or hangs, and the separate
//!   sub-scenarios pin `session_limit`, `session_budget_exhausted`,
//!   and `in_flight_limit` (a gate backend holds the only in-flight
//!   slot while a probe is refused);
//! * **wire = local**: an ensemble run over the wire is byte-identical
//!   (`deterministic_json`) to the same spec run in-process — the
//!   service layer changes nothing about the results;
//! * **frame recovery**: malformed and oversized frames are rejected
//!   by name and the session keeps working;
//! * **graceful drain**: `Shutdown` stops the accept loop, in-flight
//!   work completes, and the server's served/rejected counters match
//!   the plan exactly — and the telemetry registry's ledger (served,
//!   per-reason rejections, sessions, in-flight gauge) agrees with the
//!   drain summary, with the wake-up ping counted as neither a session
//!   nor a rejection;
//! * **latency**: request p99 stays inside the wall budget (the only
//!   timing-dependent check, named `wall` so goldens keep the verdict
//!   and drop the numbers);
//! * **request timelines**: a traced server's drained flight recorder
//!   reconstructs the full admit → serve-span → reply sequence for a
//!   hand-stamped wire correlation id, with the backend's replica
//!   spans nested inside the serve span.
//!
//! Timing convention: wall clock only appears in `secs`/`per_sec`
//! params, tables titled `timing`, and checks named `wall` — the
//! golden comparator strips exactly those. Recorded request throughput
//! is the `server` layer of `goc-bench`'s `baseline` bin.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use goc_analysis::ensemble::{run_observed, EnsembleSpec, Universes};
use goc_analysis::stats::LatencyStats;
use goc_analysis::{RunReport, Table};
use goc_proto::{
    Client, Connection, ExperimentRequest, RejectReason, ReportPayload, Request, RequestEnvelope,
    Response,
};
use goc_server::{Backend, EnsembleOnlyBackend, Server, ServerConfig, ServerSummary};
use goc_telemetry::trace::{TraceEventKind, TracePhase, TraceRecorder};
use goc_telemetry::{Observe, Registry};

use crate::service::RegistryBackend;
use crate::{Experiment, RunContext};

/// The serve experiment.
pub struct Serve;

/// Replica cap of the load server (the plan's over-budget ensembles
/// ask for one more).
const REPLICA_CAP: usize = 64;

/// Population cap of the load server.
const MINER_CAP: usize = 10_000;

/// Worker threads of the load server. Fixed (not the context's count)
/// so the server's sweep chunking — and therefore the number
/// of `Progress` frames — is deterministic.
const LOAD_THREADS: usize = 2;

/// Wall budget for the request-latency p99, seconds. Generous: the
/// slowest planned request is a two-experiment sweep.
const LATENCY_BUDGET_SECS: f64 = 60.0;

/// How long scenario helpers wait on gates and retries before giving
/// up and failing the check instead of hanging the experiment.
const SCENARIO_PATIENCE: Duration = Duration::from_secs(30);

/// What the load plan says a request must come back as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expected {
    /// A terminal `Report` frame.
    Report,
    /// A terminal `Rejected` frame with exactly this reason.
    Rejected(RejectReason),
}

impl Expected {
    fn name(self) -> String {
        match self {
            Expected::Report => "report".to_string(),
            Expected::Rejected(reason) => format!("rejected:{}", reason.name()),
        }
    }
}

/// The deterministic request sequence of one load client: a pure
/// function of `(client, requests, seed)`, mixing free status probes,
/// small ensembles, one sweep (client 0), one experiment run
/// (client 1), and a rotating over-budget request per period.
fn load_plan(client: usize, requests: usize, seed: u64) -> Vec<(Request, Expected)> {
    let mut plan = Vec::with_capacity(requests);
    for j in 0..requests {
        let entry = if client == 0 && j == 5 {
            (
                Request::Sweep {
                    runs: vec![
                        ExperimentRequest::quick("prop1"),
                        ExperimentRequest::quick("appendix_b"),
                    ],
                },
                Expected::Report,
            )
        } else if client == 1 && j == 5 {
            (
                Request::RunExperiment(ExperimentRequest::quick("prop1")),
                Expected::Report,
            )
        } else {
            match j % 6 {
                0 => (Request::Status, Expected::Report),
                2 => match (client + j / 6) % 3 {
                    0 => (
                        Request::RunEnsemble {
                            spec: EnsembleSpec::new(16, REPLICA_CAP + 1, 0),
                        },
                        Expected::Rejected(RejectReason::ReplicaCap),
                    ),
                    1 => (
                        Request::RunEnsemble {
                            spec: EnsembleSpec::new(MINER_CAP + 1, 2, 0),
                        },
                        Expected::Rejected(RejectReason::PopulationCap),
                    ),
                    _ => (
                        Request::RunExperiment(ExperimentRequest::quick("no_such_experiment")),
                        Expected::Rejected(RejectReason::UnknownExperiment),
                    ),
                },
                _ => (
                    Request::RunEnsemble {
                        spec: EnsembleSpec::new(
                            24,
                            2,
                            seed.wrapping_add((client * 131 + j) as u64),
                        ),
                    },
                    Expected::Report,
                ),
            }
        };
        plan.push(entry);
    }
    plan
}

/// What one load client observed.
#[derive(Debug, Default)]
struct ClientOutcome {
    dropped: usize,
    mismatches: Vec<String>,
    latencies: Vec<f64>,
    sweep_progress: Option<usize>,
    experiment_passed: Option<bool>,
}

/// Drives one client's plan against the server, classifying every
/// reply against its expectation.
fn run_load_client(
    addr: SocketAddr,
    client: usize,
    plan: Vec<(Request, Expected)>,
) -> ClientOutcome {
    let mut out = ClientOutcome::default();
    let mut conn = match Client::connect(addr) {
        Ok(conn) => conn,
        Err(e) => {
            out.dropped = plan.len();
            out.mismatches
                .push(format!("client {client}: connect failed: {e}"));
            return out;
        }
    };
    for (j, (request, expected)) in plan.into_iter().enumerate() {
        let started = Instant::now();
        let reply = match conn.request(request) {
            Ok(reply) => reply,
            Err(e) => {
                out.dropped += 1;
                out.mismatches
                    .push(format!("client {client} request {j}: dropped ({e})"));
                continue;
            }
        };
        out.latencies.push(started.elapsed().as_secs_f64());
        match expected {
            Expected::Report => match reply.report() {
                Some(ReportPayload::Sweep(reports)) => {
                    out.sweep_progress = Some(reply.progress_frames());
                    if reports.len() != 2 || !reports.iter().all(RunReport::passed) {
                        out.mismatches.push(format!(
                            "client {client} request {j}: sweep came back with {} reports",
                            reports.len()
                        ));
                    }
                }
                Some(ReportPayload::Experiment(report)) => {
                    out.experiment_passed = Some(report.passed());
                }
                Some(_) => {}
                None => out.mismatches.push(format!(
                    "client {client} request {j}: expected a report, got {}",
                    reply
                        .rejection()
                        .map_or_else(|| "an error".to_string(), |(r, _)| r.to_string())
                )),
            },
            Expected::Rejected(reason) => match reply.rejection() {
                Some((got, _)) if got == reason => {}
                Some((got, _)) => out.mismatches.push(format!(
                    "client {client} request {j}: expected {reason}, got {got}"
                )),
                None => out.mismatches.push(format!(
                    "client {client} request {j}: expected {reason}, got a report/error"
                )),
            },
        }
    }
    out
}

/// What [`boot`] hands back: the bound address, the server's live
/// telemetry registry, and the join handle of the serving thread.
type BootedServer = (
    SocketAddr,
    Registry,
    JoinHandle<Result<ServerSummary, String>>,
);

/// Boots a server on an ephemeral port, running it on its own thread.
fn boot(config: ServerConfig, backend: Box<dyn Backend>) -> Result<BootedServer, String> {
    let server = Server::bind(config, backend).map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let registry = server.observe().registry;
    let handle = std::thread::spawn(move || server.run().map_err(|e| e.to_string()));
    Ok((addr, registry, handle))
}

/// Asks the server to drain, retrying while a just-dropped client's
/// session slot is still being released.
fn shutdown(addr: SocketAddr) -> Result<(), String> {
    let deadline = Instant::now() + SCENARIO_PATIENCE;
    loop {
        let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
        let reply = client
            .request(Request::Shutdown)
            .map_err(|e| e.to_string())?;
        match reply.terminal() {
            Response::Report(ReportPayload::ShutdownAck) => return Ok(()),
            Response::Rejected {
                reason: RejectReason::SessionLimit,
                ..
            } if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            other => return Err(format!("unexpected shutdown outcome: {other:?}")),
        }
    }
}

/// A gate the in-flight sub-scenario's backend blocks on: the main
/// thread waits for `entered` (the slot is now provably held), probes
/// the full queue, then releases.
#[derive(Default)]
struct Gate {
    entered: Mutex<bool>,
    entered_cv: Condvar,
    released: Mutex<bool>,
    released_cv: Condvar,
}

impl Gate {
    /// Backend side: announce entry, then hold until released.
    fn enter_and_hold(&self) -> bool {
        *self.entered.lock().expect("gate lock") = true;
        self.entered_cv.notify_all();
        let released = self.released.lock().expect("gate lock");
        let (_guard, timeout) = self
            .released_cv
            .wait_timeout_while(released, SCENARIO_PATIENCE, |r| !*r)
            .expect("gate lock");
        !timeout.timed_out()
    }

    /// Experiment side: wait until the backend holds the slot.
    fn wait_entered(&self) -> bool {
        let entered = self.entered.lock().expect("gate lock");
        let (_guard, timeout) = self
            .entered_cv
            .wait_timeout_while(entered, SCENARIO_PATIENCE, |e| !*e)
            .expect("gate lock");
        !timeout.timed_out()
    }

    /// Experiment side: let the held request complete.
    fn release(&self) {
        *self.released.lock().expect("gate lock") = true;
        self.released_cv.notify_all();
    }
}

/// A [`Backend`] with one synthetic experiment, `hold`, that parks on
/// the [`Gate`] — pinning the in-flight slot for as long as the
/// scenario needs it.
struct GateBackend(Arc<Gate>);

impl Backend for GateBackend {
    fn has_experiment(&self, name: &str) -> bool {
        name == "hold"
    }

    fn run_experiment(
        &self,
        request: &ExperimentRequest,
        _threads: usize,
        _observe: &Observe,
    ) -> Result<RunReport, String> {
        if request.experiment != "hold" {
            return Err(format!("unknown experiment `{}`", request.experiment));
        }
        if self.0.enter_and_hold() {
            Ok(RunReport::new(
                "hold",
                "held the in-flight slot until released",
            ))
        } else {
            Err("gate release timed out".to_string())
        }
    }
}

impl Experiment for Serve {
    fn name(&self) -> &'static str {
        "serve"
    }

    fn describe(&self) -> &'static str {
        "service layer under load: wire protocol, admission control, graceful drain over real TCP"
    }

    fn run(&self, ctx: &RunContext) -> RunReport {
        let mut report = RunReport::new(
            self.name(),
            "the goc-proto/goc-server wire layer hammered by a deterministic load plan",
        );
        let clients = ctx.scale(8, 4);
        let requests = ctx.scale(16, 6);
        report
            .param("seed", ctx.seed.to_string())
            .param("clients", clients.to_string())
            .param("requests_per_client", requests.to_string())
            .param("total_requests", (clients * requests).to_string())
            .param("replica_cap", REPLICA_CAP.to_string())
            .param("population_cap", MINER_CAP.to_string());
        report.note(
            "the load plan is a pure function of (client, request index, seed) and every \
             admission cap is deterministic, so each reply — report or named rejection — \
             is known in advance and checked exactly; only wall clock varies between runs",
        );

        self.load_phase(&mut report, ctx, clients, requests);
        self.frame_recovery_scenario(&mut report);
        self.session_limit_scenario(&mut report);
        self.session_budget_scenario(&mut report);
        self.inflight_gate_scenario(&mut report);
        self.trace_timeline_scenario(&mut report);
        report
    }
}

impl Serve {
    /// The main phase: concurrent clients against the registry-backed
    /// server, the wire-vs-local comparison, and the drain summary.
    fn load_phase(
        &self,
        report: &mut RunReport,
        ctx: &RunContext,
        clients: usize,
        requests: usize,
    ) {
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_sessions: clients + 4,
            max_inflight: clients + 2,
            session_budget: requests as u64 + 4,
            max_replicas: REPLICA_CAP,
            max_miners: MINER_CAP,
            max_sweep_runs: 16,
            threads: LOAD_THREADS,
            ..ServerConfig::default()
        };
        let (addr, registry, handle) = match boot(config, Box::new(RegistryBackend)) {
            Ok(booted) => booted,
            Err(e) => {
                report.check("load_server_boots", false, e);
                return;
            }
        };

        // Plans (and the expected ledger) first: the drain summary is
        // checked against counts derived purely from the plan.
        let plans: Vec<Vec<(Request, Expected)>> = (0..clients)
            .map(|c| load_plan(c, requests, ctx.seed))
            .collect();
        let mut expected_served: u64 = 0;
        let mut expected_rejected: u64 = 0;
        let mut planned_outcomes: BTreeMap<(String, String), usize> = BTreeMap::new();
        for plan in &plans {
            for (request, expected) in plan {
                *planned_outcomes
                    .entry((request.kind().to_string(), expected.name()))
                    .or_insert(0) += 1;
                match expected {
                    // Status replies are free — the server's `served`
                    // counter only tracks completed compute.
                    Expected::Report if request.kind() != "status" => expected_served += 1,
                    Expected::Report => {}
                    Expected::Rejected(_) => expected_rejected += 1,
                }
            }
        }
        let planned_rejections = expected_rejected;
        let planned_reports: usize = plans
            .iter()
            .flatten()
            .filter(|(_, e)| *e == Expected::Report)
            .count();
        // The wire-vs-local ensemble below is one more served request.
        // The drain wake-up ping costs nothing: the accept loop knows
        // its own plumbing and refuses only real late clients.
        expected_served += 1;

        let mut outcomes_table = Table::new(vec!["request kind", "expected", "count"]);
        let mut csv = String::from("request_kind,expected,count\n");
        for ((kind, expected), count) in &planned_outcomes {
            outcomes_table.row(vec![kind.clone(), expected.clone(), count.to_string()]);
            csv.push_str(&format!("{kind},{expected},{count}\n"));
        }
        report.table(
            format!("planned request mix: {clients} clients × {requests} requests"),
            &outcomes_table,
        );
        report.artifact("serve.csv", csv);

        // Hammer: one OS thread per client, all plans concurrently.
        let load_clock = Instant::now();
        let workers: Vec<JoinHandle<ClientOutcome>> = plans
            .into_iter()
            .enumerate()
            .map(|(c, plan)| std::thread::spawn(move || run_load_client(addr, c, plan)))
            .collect();
        let outcomes: Vec<ClientOutcome> = workers
            .into_iter()
            .map(|w| {
                w.join().unwrap_or_else(|_| ClientOutcome {
                    mismatches: vec!["a client thread panicked".to_string()],
                    ..ClientOutcome::default()
                })
            })
            .collect();
        let load_wall = load_clock.elapsed().as_secs_f64();

        let dropped: usize = outcomes.iter().map(|o| o.dropped).sum();
        let mismatches: Vec<&String> = outcomes.iter().flat_map(|o| &o.mismatches).collect();
        report.check(
            "load_zero_dropped_responses",
            dropped == 0,
            format!(
                "{} requests across {clients} clients, {dropped} dropped",
                clients * requests
            ),
        );
        report.check(
            "load_outcomes_match_the_deterministic_plan",
            mismatches.is_empty(),
            if mismatches.is_empty() {
                format!(
                    "{planned_reports} reports and {planned_rejections} named rejections, \
                     exactly as planned"
                )
            } else {
                mismatches
                    .iter()
                    .take(8)
                    .map(|s| s.as_str())
                    .collect::<Vec<_>>()
                    .join("; ")
            },
        );
        let sweep_progress = outcomes.iter().find_map(|o| o.sweep_progress);
        report.check(
            "sweep_streams_progress_frames",
            sweep_progress == Some(1),
            format!(
                "a 2-run sweep on {LOAD_THREADS} workers completes in one chunk: {} progress \
                 frame(s) observed",
                sweep_progress.map_or_else(|| "no".to_string(), |n| n.to_string())
            ),
        );
        report.check(
            "experiment_runs_over_the_wire",
            outcomes.iter().any(|o| o.experiment_passed == Some(true)),
            "prop1 (quick) returned a passing report through the service layer".to_string(),
        );

        // Latency: percentiles over every terminal reply.
        let mut latency = LatencyStats::new();
        for outcome in &outcomes {
            for &secs in &outcome.latencies {
                latency.record_secs(secs);
            }
        }
        let summary = latency.summary();
        let mut latency_table = Table::new(vec!["quantile", "secs"]);
        for (label, value) in [
            ("p50", summary.p50_secs),
            ("p90", summary.p90_secs),
            ("p99", summary.p99_secs),
            ("max", summary.max_secs),
        ] {
            latency_table.row(vec![label.to_string(), format!("{value:.6}")]);
        }
        report.table(
            "request latency timing (stripped from goldens)",
            &latency_table,
        );
        report
            .param("request_p50_secs", format!("{:.6}", summary.p50_secs))
            .param("request_p99_secs", format!("{:.6}", summary.p99_secs))
            .param("load_wall_secs", format!("{load_wall:.3}"))
            .param(
                "load_requests_per_sec",
                format!("{:.1}", (clients * requests) as f64 / load_wall.max(1e-9)),
            );
        report.check(
            "request_wall_p99_within_budget",
            summary.p99_secs < LATENCY_BUDGET_SECS,
            format!(
                "p99 {:.4} s over {} requests (budget {LATENCY_BUDGET_SECS:.0} s)",
                summary.p99_secs, summary.n
            ),
        );

        // Wire vs local: the service layer must change nothing.
        let spec = EnsembleSpec::new(
            ctx.scale(1_000, 200),
            ctx.scale(16, 4),
            ctx.seed.wrapping_add(0x5eed),
        );
        match Client::connect(addr)
            .and_then(|mut c| c.request(Request::RunEnsemble { spec: spec.clone() }))
        {
            Ok(reply) => match (
                reply.report(),
                run_observed(&spec, ctx.threads.max(1), &ctx.observe, &Universes::new()),
            ) {
                (Some(ReportPayload::Ensemble(wire)), Ok(local)) => {
                    let wire_json = wire.deterministic_json();
                    let local_json = local.deterministic_json();
                    report.check(
                        "wire_report_matches_local_run_byte_for_byte",
                        wire_json == local_json,
                        format!(
                            "{} miners × {} replicas: {} bytes of deterministic report",
                            spec.miners,
                            spec.replicas,
                            local_json.len()
                        ),
                    );
                }
                (other, _) => {
                    report.check(
                        "wire_report_matches_local_run_byte_for_byte",
                        false,
                        format!("expected an ensemble report over the wire, got {other:?}"),
                    );
                }
            },
            Err(e) => {
                report.check(
                    "wire_report_matches_local_run_byte_for_byte",
                    false,
                    format!("wire ensemble failed: {e}"),
                );
            }
        }

        // Drain, then audit the lifetime counters against the plan.
        match shutdown(addr).and_then(|()| {
            handle
                .join()
                .map_err(|_| "server thread panicked".to_string())?
        }) {
            Ok(summary) => {
                report.check(
                    "shutdown_summary_accounts_for_every_request",
                    summary.served == expected_served && summary.rejected == expected_rejected,
                    format!(
                        "served {} (expected {expected_served}), rejected {} (expected \
                         {expected_rejected}; the drain wake-up ping counts as neither)",
                        summary.served, summary.rejected
                    ),
                );
                // The two ledgers — the drain summary's atomics and
                // the telemetry registry — must tell the same story.
                let snap = registry.snapshot();
                let telemetry_served = snap.counter("goc_server_served_total");
                let telemetry_rejected = snap.counter_family_total("goc_server_rejected_total");
                // Every accepted session: the load clients, the
                // wire-vs-local client, and the drain requester. The
                // wake-up ping self-connect must not appear here.
                let expected_sessions = clients as u64 + 2;
                let telemetry_sessions = snap.counter("goc_server_sessions_total");
                report.check(
                    "telemetry_ledger_matches_the_drain_summary",
                    telemetry_served == Some(summary.served)
                        && telemetry_rejected == summary.rejected
                        && telemetry_sessions == Some(expected_sessions)
                        && snap.gauge("goc_server_inflight") == Some(0),
                    format!(
                        "registry says served {telemetry_served:?} / rejected \
                         {telemetry_rejected} / sessions {telemetry_sessions:?} (expected \
                         {expected_sessions}; the wake-up ping is not a session) / in-flight \
                         {:?}",
                        snap.gauge("goc_server_inflight")
                    ),
                );
            }
            Err(e) => {
                report.check("shutdown_summary_accounts_for_every_request", false, e);
            }
        }
    }

    /// Malformed and oversized frames are rejected by name and the
    /// session survives both (its own tiny-frame server, so the
    /// oversized probe costs kilobytes, not megabytes).
    fn frame_recovery_scenario(&self, report: &mut RunReport) {
        const CHECK: &str = "malformed_and_oversized_frames_rejected_by_name";
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_frame_bytes: 4 * 1024,
            threads: 1,
            ..ServerConfig::default()
        };
        let (addr, _registry, handle) = match boot(config, Box::new(EnsembleOnlyBackend)) {
            Ok(booted) => booted,
            Err(e) => {
                report.check(CHECK, false, e);
                return;
            }
        };
        let verdict = (|| -> Result<(), String> {
            let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
            let mut raw = stream.try_clone().map_err(|e| e.to_string())?;
            let mut conn = Connection::new(stream);
            raw.write_all(b"this is not a protocol frame\n")
                .map_err(|e| e.to_string())?;
            let malformed = conn.recv_response().map_err(|e| e.to_string())?;
            if !matches!(
                malformed.response,
                Response::Rejected {
                    reason: RejectReason::MalformedFrame,
                    ..
                }
            ) {
                return Err(format!("garbage frame answered {:?}", malformed.response));
            }
            let mut oversized = vec![b'x'; 8 * 1024];
            oversized.push(b'\n');
            raw.write_all(&oversized).map_err(|e| e.to_string())?;
            let too_large = conn.recv_response().map_err(|e| e.to_string())?;
            if !matches!(
                too_large.response,
                Response::Rejected {
                    reason: RejectReason::FrameTooLarge,
                    ..
                }
            ) {
                return Err(format!("oversized frame answered {:?}", too_large.response));
            }
            // The session must still work after both faults.
            conn.send_request(&RequestEnvelope::new(7, Request::Status))
                .map_err(|e| e.to_string())?;
            let status = conn.recv_response().map_err(|e| e.to_string())?;
            match status.response {
                Response::Report(ReportPayload::Status(_)) => Ok(()),
                other => Err(format!("post-fault status answered {other:?}")),
            }
        })();
        report.check(
            CHECK,
            verdict.is_ok(),
            verdict.err().unwrap_or_else(|| {
                "malformed_frame then frame_too_large, and the session kept serving".to_string()
            }),
        );
        if shutdown(addr).is_ok() {
            let _ = handle.join();
        }
    }

    /// A 1-session server refuses the second client by name.
    fn session_limit_scenario(&self, report: &mut RunReport) {
        const CHECK: &str = "session_limit_rejects_extra_clients_by_name";
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_sessions: 1,
            threads: 1,
            ..ServerConfig::default()
        };
        let (addr, _registry, handle) = match boot(config, Box::new(EnsembleOnlyBackend)) {
            Ok(booted) => booted,
            Err(e) => {
                report.check(CHECK, false, e);
                return;
            }
        };
        let verdict = (|| -> Result<(), String> {
            let mut first = Client::connect(addr).map_err(|e| e.to_string())?;
            if first
                .request(Request::Status)
                .map_err(|e| e.to_string())?
                .report()
                .is_none()
            {
                return Err("the first client's status probe failed".to_string());
            }
            let mut second = Client::connect(addr).map_err(|e| e.to_string())?;
            let refused = second.request(Request::Status).map_err(|e| e.to_string())?;
            match refused.rejection() {
                Some((RejectReason::SessionLimit, _)) => Ok(()),
                other => Err(format!("second client got {other:?}")),
            }
        })();
        report.check(
            CHECK,
            verdict.is_ok(),
            verdict
                .err()
                .unwrap_or_else(|| "client 2 of a 1-session server: session_limit".to_string()),
        );
        if shutdown(addr).is_ok() {
            let _ = handle.join();
        }
    }

    /// A budget-1 session gets one compute request, then named refusals.
    fn session_budget_scenario(&self, report: &mut RunReport) {
        const CHECK: &str = "session_budget_exhausted_rejects_by_name";
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            session_budget: 1,
            threads: 1,
            ..ServerConfig::default()
        };
        let (addr, _registry, handle) = match boot(config, Box::new(EnsembleOnlyBackend)) {
            Ok(booted) => booted,
            Err(e) => {
                report.check(CHECK, false, e);
                return;
            }
        };
        let verdict = (|| -> Result<(), String> {
            let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
            let spec = EnsembleSpec::new(16, 2, 3);
            let first = client
                .request(Request::RunEnsemble { spec: spec.clone() })
                .map_err(|e| e.to_string())?;
            if first.report().is_none() {
                return Err(format!(
                    "the budgeted request failed: {:?}",
                    first.terminal()
                ));
            }
            let second = client
                .request(Request::RunEnsemble { spec })
                .map_err(|e| e.to_string())?;
            match second.rejection() {
                Some((RejectReason::SessionBudgetExhausted, _)) => {}
                other => return Err(format!("over-budget request got {other:?}")),
            }
            // Status stays free after the budget is spent.
            if client
                .request(Request::Status)
                .map_err(|e| e.to_string())?
                .report()
                .is_none()
            {
                return Err("status should stay free after the budget is spent".to_string());
            }
            Ok(())
        })();
        report.check(
            CHECK,
            verdict.is_ok(),
            verdict.err().unwrap_or_else(|| {
                "request 2 of a budget-1 session: session_budget_exhausted (status stays free)"
                    .to_string()
            }),
        );
        if shutdown(addr).is_ok() {
            let _ = handle.join();
        }
    }

    /// The bounded in-flight queue, made deterministic: a gate backend
    /// provably holds the only slot while a probe is refused, then the
    /// held request completes after release.
    fn inflight_gate_scenario(&self, report: &mut RunReport) {
        const CHECK: &str = "inflight_limit_rejects_by_name_while_slot_held";
        let gate = Arc::new(Gate::default());
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_inflight: 1,
            threads: 1,
            ..ServerConfig::default()
        };
        let (addr, _registry, handle) = match boot(config, Box::new(GateBackend(Arc::clone(&gate))))
        {
            Ok(booted) => booted,
            Err(e) => {
                report.check(CHECK, false, e);
                return;
            }
        };
        let holder = std::thread::spawn(move || {
            Client::connect(addr).and_then(|mut c| {
                c.request(Request::RunExperiment(ExperimentRequest::quick("hold")))
            })
        });
        let verdict = (|| -> Result<(), String> {
            if !gate.wait_entered() {
                return Err("the gated request never reached the backend".to_string());
            }
            let mut probe = Client::connect(addr).map_err(|e| e.to_string())?;
            let refused = probe
                .request(Request::RunEnsemble {
                    spec: EnsembleSpec::new(16, 2, 0),
                })
                .map_err(|e| e.to_string())?;
            match refused.rejection() {
                Some((RejectReason::InFlightLimit, _)) => Ok(()),
                other => Err(format!("probe got {other:?} while the slot was held")),
            }
        })();
        gate.release();
        report.check(
            CHECK,
            verdict.is_ok(),
            verdict.err().unwrap_or_else(|| {
                "with the only in-flight slot provably held, a probe is refused: in_flight_limit"
                    .to_string()
            }),
        );
        let held = holder.join();
        let held_ok = matches!(
            &held,
            Ok(Ok(reply)) if matches!(reply.report(), Some(ReportPayload::Experiment(r)) if r.experiment == "hold")
        );
        report.check(
            "gated_request_completes_after_release",
            held_ok,
            "the held request finishes with its report once the gate opens — admitted work \
             is never dropped"
                .to_string(),
        );
        if shutdown(addr).is_ok() {
            let _ = handle.join();
        }
    }

    /// A traced server's drained flight recorder reconstructs the full
    /// per-request timeline — admission instant, serve span around the
    /// backend compute, reply — keyed by the wire correlation id the
    /// client chose.
    fn trace_timeline_scenario(&self, report: &mut RunReport) {
        const CHECK: &str = "trace_reconstructs_request_timeline_by_correlation_id";
        /// The hand-stamped wire id the timeline is keyed by.
        const CORRELATION: u64 = 3084;
        /// Replicas of the traced ensemble (each leaves a start/finish
        /// pair on the recorder).
        const REPLICAS: usize = 4;
        let tracer = TraceRecorder::new(4096);
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 1,
            ..ServerConfig::default()
        };
        let observe = Observe {
            registry: Registry::new(),
            tracer: tracer.clone(),
        };
        let server = match crate::service::registry_server(config, observe) {
            Ok(server) => server,
            Err(e) => {
                report.check(CHECK, false, e.to_string());
                return;
            }
        };
        let verdict = (|| -> Result<(), String> {
            let addr = server.local_addr().map_err(|e| e.to_string())?;
            let handle = std::thread::spawn(move || server.run().map_err(|e| e.to_string()));
            let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
            let mut conn = Connection::new(stream);
            conn.send_request(&RequestEnvelope::new(
                CORRELATION,
                Request::RunEnsemble {
                    spec: EnsembleSpec::new(24, REPLICAS, 0),
                },
            ))
            .map_err(|e| e.to_string())?;
            loop {
                let response = conn.recv_response().map_err(|e| e.to_string())?;
                match response.response {
                    Response::Accepted | Response::Progress { .. } => continue,
                    Response::Report(ReportPayload::Ensemble(_)) => break,
                    other => return Err(format!("traced request answered {other:?}")),
                }
            }
            drop(conn);
            shutdown(addr)?;
            handle
                .join()
                .map_err(|_| "server thread panicked".to_string())??;

            let snap = tracer.snapshot();
            let timeline = snap.timeline(CORRELATION);
            let shape: Vec<(TraceEventKind, TracePhase)> =
                timeline.iter().map(|e| (e.kind, e.phase)).collect();
            let expected = vec![
                (TraceEventKind::RequestAdmit, TracePhase::Instant),
                (TraceEventKind::RequestServe, TracePhase::Begin),
                (TraceEventKind::RequestServe, TracePhase::End),
            ];
            if shape != expected {
                return Err(format!("timeline of {CORRELATION} came back as {shape:?}"));
            }
            if !timeline.iter().all(|e| e.lane == timeline[0].lane) {
                return Err("one session's timeline spread across lanes".to_string());
            }
            // The backend's compute nests inside the serve span.
            let (begin, end) = (timeline[1].nanos, timeline[2].nanos);
            let starts = snap
                .events
                .iter()
                .filter(|e| e.kind == TraceEventKind::ReplicaStart)
                .collect::<Vec<_>>();
            if starts.len() != REPLICAS
                || !starts.iter().all(|e| begin <= e.nanos && e.nanos <= end)
            {
                return Err(format!(
                    "{} replica starts, expected {REPLICAS} inside the serve span",
                    starts.len()
                ));
            }
            Ok(())
        })();
        report.check(
            CHECK,
            verdict.is_ok(),
            verdict.err().unwrap_or_else(|| {
                format!(
                    "admit → serve span → reply for wire id {CORRELATION}, with {REPLICAS} \
                     replica spans nested inside the serve span"
                )
            }),
        );
    }
}
