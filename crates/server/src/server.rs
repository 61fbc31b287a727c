//! [`Server`]: the accept loop, one session thread per client, and the
//! admission-control pipeline every compute request passes through.

use std::fmt;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use goc_analysis::ensemble;
use goc_analysis::ensemble::executor::panic_message;
use goc_analysis::ensemble::Universes;
use goc_analysis::parallel_map;
use goc_proto::{
    Connection, ProtoError, RejectReason, ReportPayload, Request, Response, ResponseEnvelope,
    ServerStatus, PROTOCOL_VERSION,
};
use goc_telemetry::trace::{TraceEventKind, TraceLane, TraceRecorder};
use goc_telemetry::{with_label, Observe, Registry};

use crate::backend::Backend;
use crate::config::{ConfigError, ServerConfig};

/// How often a parked session re-checks the draining flag.
const SESSION_POLL: Duration = Duration::from_millis(100);

/// How long one write to a session socket may make no progress before
/// the session treats its client as gone. A client that pipelines
/// requests and never reads fills both socket buffers; without this
/// bound its session would block in the write forever, holding its
/// session slot (and its in-flight slot mid-compute) and wedging the
/// drain's join.
const SESSION_WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// Errors of server construction and operation.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServerError {
    /// The configuration failed validation.
    Config(ConfigError),
    /// The listener could not bind.
    Bind {
        /// The requested address.
        addr: String,
        /// The OS error.
        detail: String,
    },
    /// A listener-level I/O failure.
    Io(String),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Config(e) => write!(f, "{e}"),
            ServerError::Bind { addr, detail } => write!(f, "cannot bind {addr}: {detail}"),
            ServerError::Io(detail) => write!(f, "server I/O error: {detail}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<ConfigError> for ServerError {
    fn from(e: ConfigError) -> Self {
        ServerError::Config(e)
    }
}

/// What the server did over its lifetime, returned by [`Server::run`]
/// after a graceful drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerSummary {
    /// Compute requests completed with a `Report`.
    pub served: u64,
    /// Requests and sessions refused by name.
    pub rejected: u64,
}

/// Shared server state: the limits, the backend, the counters the
/// admission pipeline and `Status` requests read, and the last shared
/// universe an ensemble built.
struct State {
    config: ServerConfig,
    backend: Box<dyn Backend>,
    local_addr: SocketAddr,
    draining: AtomicBool,
    /// Set just before the drain wake-up ping self-connects so the
    /// accept loop can tell it apart from a late client: the ping is
    /// service plumbing, not a rejected session.
    wake_ping_pending: AtomicBool,
    sessions: AtomicUsize,
    inflight: AtomicUsize,
    served: AtomicU64,
    rejected: AtomicU64,
    /// The server's metrics and flight recorder, handed on to every
    /// ensemble and backend call it runs.
    observe: Observe,
    /// One slot shared by every `RunEnsemble`: consecutive requests
    /// over the same population fork one universe instead of each
    /// building its own.
    universes: Universes,
}

impl State {
    /// The status payload; `wants_metrics` (the request envelope spoke
    /// protocol v2 or later) decides whether the registry snapshot
    /// rides along, so v1 clients get exactly the payload they expect.
    fn status(&self, wants_metrics: bool) -> ServerStatus {
        ServerStatus {
            version: PROTOCOL_VERSION,
            sessions: self.sessions.load(Ordering::SeqCst),
            inflight: self.inflight.load(Ordering::SeqCst),
            served: self.served.load(Ordering::SeqCst),
            rejected: self.rejected.load(Ordering::SeqCst),
            draining: self.draining.load(Ordering::SeqCst),
            max_sessions: self.config.max_sessions,
            max_inflight: self.config.max_inflight,
            metrics: wants_metrics.then(|| self.observe.registry.snapshot()),
        }
    }

    /// Counts a refusal in both ledgers: the lifetime counter the
    /// summary and `Status` read, and the per-reason labeled telemetry
    /// counter. Keeping them behind one seam is what lets the drain
    /// accounting assertion (`served + rejected == registry totals`)
    /// hold by construction.
    fn count_rejection(&self, reason: RejectReason) {
        self.rejected.fetch_add(1, Ordering::SeqCst);
        self.observe
            .registry
            .counter(&with_label(
                "goc_server_rejected_total",
                "reason",
                reason.name(),
            ))
            .inc();
    }

    /// Claims an in-flight slot if one is free (the bounded queue).
    fn try_acquire_inflight(&self) -> bool {
        self.inflight
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < self.config.max_inflight).then_some(n + 1)
            })
            .is_ok()
    }

    /// Joins a session thread. A session that panicked outside a
    /// compute request already released its slot via the guards; it is
    /// counted on `goc_server_panics_total` so the ledger still sees it.
    fn join_session(&self, handle: JoinHandle<()>) {
        if handle.join().is_err() {
            self.observe
                .registry
                .counter("goc_server_panics_total")
                .inc();
        }
    }

    /// Claims a session slot if one is free.
    fn try_acquire_session(&self) -> bool {
        self.sessions
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < self.config.max_sessions).then_some(n + 1)
            })
            .is_ok()
    }
}

/// Releases an in-flight slot on every exit path.
struct InflightGuard<'a>(&'a State);

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.inflight.fetch_sub(1, Ordering::SeqCst);
        self.0.observe.registry.gauge("goc_server_inflight").dec();
    }
}

/// Releases a session slot on every exit path (including panics in a
/// session thread, so a crashed session can never leak its slot).
struct SessionGuard(Arc<State>);

impl Drop for SessionGuard {
    fn drop(&mut self) {
        self.0.sessions.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The Game-of-Coins service: bind, then [`Server::run`] until a
/// `Shutdown` request drains it.
pub struct Server {
    listener: TcpListener,
    state: Arc<State>,
}

impl Server {
    /// Validates the config and binds the listener (`addr` port 0
    /// picks an ephemeral port — read it back with
    /// [`Server::local_addr`]), with an enabled metrics registry and a
    /// disabled flight recorder.
    ///
    /// # Errors
    ///
    /// [`ServerError::Config`] for a degenerate config,
    /// [`ServerError::Bind`] when the OS refuses the address.
    pub fn bind(config: ServerConfig, backend: Box<dyn Backend>) -> Result<Server, ServerError> {
        let observe = Observe {
            registry: Registry::new(),
            tracer: TraceRecorder::disabled(),
        };
        Server::bind_observed(config, backend, observe)
    }

    /// [`Server::bind`] recording on the caller's `observe` handle.
    /// Session metrics land on `observe.registry`. Every session thread
    /// writes request-correlated spans onto its own lane of
    /// `observe.tracer`: a `request_admit` instant when a compute
    /// request clears the admission pipeline, a `request_serve` span
    /// around backend compute + terminal reply, and a `request_reject`
    /// instant for every named refusal, each carrying the wire
    /// envelope's correlation id, so a drained recorder reconstructs
    /// per-request timelines exactly. The same handle goes to every
    /// ensemble and backend call, so their metrics and spans land
    /// beside the server's.
    ///
    /// # Errors
    ///
    /// As [`Server::bind`].
    pub fn bind_observed(
        config: ServerConfig,
        backend: Box<dyn Backend>,
        observe: Observe,
    ) -> Result<Server, ServerError> {
        config.validate()?;
        let listener = TcpListener::bind(&config.addr).map_err(|e| ServerError::Bind {
            addr: config.addr.clone(),
            detail: e.to_string(),
        })?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| ServerError::Io(e.to_string()))?;
        // Instruments register on first touch; touching the headline
        // ones here makes every exposition show them from zero rather
        // than having them pop into existence with the first event.
        let registry = &observe.registry;
        registry.counter("goc_server_sessions_total");
        registry.counter("goc_server_served_total");
        registry.counter("goc_server_panics_total");
        registry.gauge("goc_server_inflight");
        Ok(Server {
            listener,
            state: Arc::new(State {
                config,
                backend,
                local_addr,
                draining: AtomicBool::new(false),
                wake_ping_pending: AtomicBool::new(false),
                sessions: AtomicUsize::new(0),
                inflight: AtomicUsize::new(0),
                served: AtomicU64::new(0),
                rejected: AtomicU64::new(0),
                observe,
                universes: Universes::new(),
            }),
        })
    }

    /// The bound address (the real port when the config asked for 0).
    ///
    /// # Errors
    ///
    /// [`ServerError::Io`] when the OS cannot report it.
    pub fn local_addr(&self) -> Result<SocketAddr, ServerError> {
        self.listener
            .local_addr()
            .map_err(|e| ServerError::Io(e.to_string()))
    }

    /// A handle onto the server's registry and flight recorder (cheap
    /// `Arc` clones sharing the server's instruments and rings). It
    /// keeps reporting after [`Server::run`] returns: the `serve`
    /// experiment and `goc serve --metrics`/`--trace` read their
    /// post-drain expositions and dumps through it.
    pub fn observe(&self) -> Observe {
        self.state.observe.clone()
    }

    /// Accepts sessions until a `Shutdown` request flips the server
    /// into draining, then joins every session thread (in-flight work
    /// runs to completion) and returns the lifetime counters.
    ///
    /// # Errors
    ///
    /// [`ServerError::Io`] only for listener-level failures; per-
    /// session faults never tear the server down.
    pub fn run(self) -> Result<ServerSummary, ServerError> {
        let mut handles: Vec<JoinHandle<()>> = Vec::new();
        for incoming in self.listener.incoming() {
            let stream = match incoming {
                Ok(stream) => stream,
                // Transient accept faults (e.g. the peer vanished
                // between SYN and accept) are not fatal.
                Err(_) => continue,
            };
            if self.state.draining.load(Ordering::SeqCst) {
                // The drain wake-up ping is our own plumbing: consume
                // its pending flag and stop accepting without counting
                // a rejection. Anything else here is a late client and
                // is refused by name.
                if !self.state.wake_ping_pending.swap(false, Ordering::SeqCst) {
                    self.state.count_rejection(RejectReason::Draining);
                    refuse(stream, RejectReason::Draining, "server is draining");
                }
                break;
            }
            if !self.state.try_acquire_session() {
                self.state.count_rejection(RejectReason::SessionLimit);
                refuse(
                    stream,
                    RejectReason::SessionLimit,
                    &format!("at the {}-session cap", self.state.config.max_sessions),
                );
                continue;
            }
            self.state
                .observe
                .registry
                .counter("goc_server_sessions_total")
                .inc();
            let (finished, running) = handles.into_iter().partition(|h| h.is_finished());
            handles = running;
            for handle in finished {
                self.state.join_session(handle);
            }
            let state = Arc::clone(&self.state);
            handles.push(std::thread::spawn(move || session(state, stream)));
        }
        for handle in handles {
            self.state.join_session(handle);
        }
        Ok(ServerSummary {
            served: self.state.served.load(Ordering::SeqCst),
            rejected: self.state.rejected.load(Ordering::SeqCst),
        })
    }
}

/// Best-effort single-frame refusal of a connection that never got a
/// session (errors ignored: the peer may already be gone).
fn refuse(stream: TcpStream, reason: RejectReason, detail: &str) {
    let mut conn = Connection::new(stream);
    let _ = conn.send_response(&ResponseEnvelope::new(
        0,
        Response::Rejected {
            reason,
            detail: detail.to_string(),
        },
    ));
}

/// Sends one response frame; `Err(())` means the client is gone and
/// the session should end.
fn reply(conn: &mut Connection<TcpStream>, id: u64, response: Response) -> Result<(), ()> {
    conn.send_response(&ResponseEnvelope::new(id, response))
        .map_err(|_| ())
}

/// Counts, traces, and sends a named rejection.
fn reject(
    state: &State,
    conn: &mut Connection<TcpStream>,
    lane: &TraceLane,
    id: u64,
    reason: RejectReason,
    detail: String,
) -> Result<(), ()> {
    state.count_rejection(reason);
    lane.instant(TraceEventKind::RequestReject, id);
    reply(conn, id, Response::Rejected { reason, detail })
}

/// One client session: frame requests off the connection until the
/// peer hangs up (or the server drains), answering each one. Framing
/// faults are per-frame: a malformed or oversized frame is rejected by
/// name and the session keeps going.
fn session(state: Arc<State>, stream: TcpStream) {
    let _slot = SessionGuard(Arc::clone(&state));
    // The poll timeout is what lets an idle session notice a drain;
    // without it the join in `run` would wait on clients that never
    // speak again. The write timeout does the same for clients that
    // never read.
    stream.set_read_timeout(Some(SESSION_POLL)).ok();
    stream.set_write_timeout(Some(SESSION_WRITE_TIMEOUT)).ok();
    stream.set_nodelay(true).ok();
    let mut conn = Connection::with_max_frame(stream, state.config.max_frame_bytes);
    // One trace lane per session thread (the recorder's single-writer
    // unit); every record on it carries a wire correlation id.
    let lane = state.observe.tracer.lane();
    let mut budget_used: u64 = 0;
    loop {
        let envelope = match conn.recv_request() {
            Ok(envelope) => envelope,
            Err(ProtoError::TimedOut) => {
                if state.draining.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            Err(e @ ProtoError::FrameTooLarge { .. }) => {
                if reject(
                    &state,
                    &mut conn,
                    &lane,
                    0,
                    RejectReason::FrameTooLarge,
                    e.to_string(),
                )
                .is_err()
                {
                    break;
                }
                continue;
            }
            Err(e @ ProtoError::Malformed { .. }) => {
                if reject(
                    &state,
                    &mut conn,
                    &lane,
                    0,
                    RejectReason::MalformedFrame,
                    e.to_string(),
                )
                .is_err()
                {
                    break;
                }
                continue;
            }
            // Closed / I/O fault: the client went away; clean exit.
            Err(_) => break,
        };
        let id = envelope.id;
        if let Err(e) = envelope.check_version() {
            if reject(
                &state,
                &mut conn,
                &lane,
                id,
                RejectReason::VersionMismatch,
                e.to_string(),
            )
            .is_err()
            {
                break;
            }
            continue;
        }
        // The metrics snapshot joined the status payload at protocol
        // v2; older envelopes get the exact v1 payload shape.
        let wants_metrics = envelope.version >= 2;
        let kind = envelope.request.kind();
        let start = Instant::now();
        let done = match envelope.request {
            // Status is free and always answered, draining included.
            Request::Status => reply(
                &mut conn,
                id,
                Response::Report(ReportPayload::Status(state.status(wants_metrics))),
            ),
            // Metrics is free like Status: the text exposition plus
            // the structured snapshot it was rendered from.
            Request::Metrics => {
                let snapshot = state.observe.registry.snapshot();
                reply(
                    &mut conn,
                    id,
                    Response::Report(ReportPayload::Metrics {
                        text: snapshot.render_text(),
                        snapshot,
                    }),
                )
            }
            Request::Shutdown => {
                state.draining.store(true, Ordering::SeqCst);
                let sent = reply(&mut conn, id, Response::Report(ReportPayload::ShutdownAck));
                // Unblock the accept loop so it can observe the drain.
                // The pending flag tells it this connection is the
                // wake-up ping, not a late client to count.
                state.wake_ping_pending.store(true, Ordering::SeqCst);
                TcpStream::connect(state.local_addr).ok();
                sent
            }
            // A panic anywhere in a compute request, admission
            // included, costs the client one `Error` frame, not its
            // session; the guards release whatever slot it held.
            request => catch_unwind(AssertUnwindSafe(|| {
                handle_compute(&state, &mut conn, &lane, id, request, &mut budget_used)
            }))
            .unwrap_or_else(|payload| {
                state
                    .observe
                    .registry
                    .counter("goc_server_panics_total")
                    .inc();
                let detail = format!("request panicked: {}", panic_message(payload));
                reply(&mut conn, id, Response::Error { detail })
            }),
        };
        state
            .observe
            .registry
            .histogram(&with_label("goc_server_request_secs", "kind", kind))
            .observe_duration(start.elapsed());
        if done.is_err() {
            break;
        }
    }
}

/// The admission pipeline for compute requests: drain check, session
/// budget, request caps, then the bounded in-flight gate; admitted
/// requests stream `Accepted` (+ `Progress` for sweeps) and end with
/// `Report` or `Error`.
fn handle_compute(
    state: &State,
    conn: &mut Connection<TcpStream>,
    lane: &TraceLane,
    id: u64,
    request: Request,
    budget_used: &mut u64,
) -> Result<(), ()> {
    if state.draining.load(Ordering::SeqCst) {
        return reject(
            state,
            conn,
            lane,
            id,
            RejectReason::Draining,
            "server is draining; no new work".to_string(),
        );
    }
    if *budget_used >= state.config.session_budget {
        return reject(
            state,
            conn,
            lane,
            id,
            RejectReason::SessionBudgetExhausted,
            format!(
                "session budget of {} compute requests spent",
                state.config.session_budget
            ),
        );
    }
    if let Some((reason, detail)) = admission_fault(state, &request) {
        return reject(state, conn, lane, id, reason, detail);
    }
    if !state.try_acquire_inflight() {
        return reject(
            state,
            conn,
            lane,
            id,
            RejectReason::InFlightLimit,
            format!(
                "bounded in-flight queue is full ({} requests)",
                state.config.max_inflight
            ),
        );
    }
    // Admitted: past every gate, in-flight slot held.
    lane.instant(TraceEventKind::RequestAdmit, id);
    state.observe.registry.gauge("goc_server_inflight").inc();
    let _slot = InflightGuard(state);
    *budget_used += 1;
    reply(conn, id, Response::Accepted)?;
    // The serve span covers backend compute plus the terminal reply
    // write, so the drained timeline shows where the request's time
    // went after admission.
    let _serve = lane.span(TraceEventKind::RequestServe, id);
    match execute(state, conn, id, &request) {
        Ok(payload) => {
            state.served.fetch_add(1, Ordering::SeqCst);
            state
                .observe
                .registry
                .counter("goc_server_served_total")
                .inc();
            reply(conn, id, Response::Report(payload))
        }
        Err(detail) => reply(conn, id, Response::Error { detail }),
    }
}

/// The pre-gate caps: every fault is a named [`RejectReason`] produced
/// before any work is queued.
fn admission_fault(state: &State, request: &Request) -> Option<(RejectReason, String)> {
    let cfg = &state.config;
    match request {
        Request::RunExperiment(run) => {
            if !state.backend.has_experiment(&run.experiment) {
                return Some((
                    RejectReason::UnknownExperiment,
                    format!("unknown experiment `{}`", run.experiment),
                ));
            }
            if let Some(replicas) = run.replicas {
                if replicas > cfg.max_replicas {
                    return Some((
                        RejectReason::ReplicaCap,
                        format!("{replicas} replicas exceed the cap of {}", cfg.max_replicas),
                    ));
                }
            }
        }
        Request::RunEnsemble { spec } => {
            if let Err(e) = spec.validate() {
                return Some((RejectReason::InvalidRequest, e.to_string()));
            }
            if spec.replicas > cfg.max_replicas {
                return Some((
                    RejectReason::ReplicaCap,
                    format!(
                        "{} replicas exceed the cap of {}",
                        spec.replicas, cfg.max_replicas
                    ),
                ));
            }
            if spec.miners > cfg.max_miners {
                return Some((
                    RejectReason::PopulationCap,
                    format!(
                        "{} miners exceed the cap of {}",
                        spec.miners, cfg.max_miners
                    ),
                ));
            }
        }
        Request::Sweep { runs } => {
            if runs.is_empty() {
                return Some((
                    RejectReason::InvalidRequest,
                    "a sweep needs at least one run".to_string(),
                ));
            }
            if runs.len() > cfg.max_sweep_runs {
                return Some((
                    RejectReason::SweepCap,
                    format!(
                        "{} runs exceed the sweep cap of {}",
                        runs.len(),
                        cfg.max_sweep_runs
                    ),
                ));
            }
            for run in runs {
                if !state.backend.has_experiment(&run.experiment) {
                    return Some((
                        RejectReason::UnknownExperiment,
                        format!("unknown experiment `{}`", run.experiment),
                    ));
                }
                if let Some(replicas) = run.replicas {
                    if replicas > cfg.max_replicas {
                        return Some((
                            RejectReason::ReplicaCap,
                            format!("{replicas} replicas exceed the cap of {}", cfg.max_replicas),
                        ));
                    }
                }
            }
        }
        // Handled before the pipeline.
        Request::Status | Request::Metrics | Request::Shutdown => {}
    }
    None
}

/// Lowers an admitted request onto the compute substrate: ensembles go
/// straight to [`goc_analysis::ensemble::run_observed`] (the
/// work-stealing executor) with the server's one [`Universes`] slot,
/// experiments through the injected [`Backend`], and sweeps through
/// [`parallel_map`] over the backend, one chunk of `threads` runs at a
/// time with a `Progress` frame after each; all of them record on the
/// server's [`Observe`] handle. A panic here — a sweep entry's included
/// — unwinds to the session loop, which answers it with an `Error`
/// frame.
fn execute(
    state: &State,
    conn: &mut Connection<TcpStream>,
    id: u64,
    request: &Request,
) -> Result<ReportPayload, String> {
    let threads = state.config.threads;
    let observe = &state.observe;
    match request {
        Request::RunExperiment(run) => state
            .backend
            .run_experiment(run, threads, observe)
            .map(ReportPayload::Experiment),
        Request::RunEnsemble { spec } => {
            ensemble::run_observed(spec, threads, observe, &state.universes)
                .map(ReportPayload::Ensemble)
                .map_err(|e| e.to_string())
        }
        Request::Sweep { runs } => {
            let total = runs.len();
            let mut reports = Vec::with_capacity(total);
            for chunk in runs.chunks(threads) {
                // Each run gets one worker: the sweep is the parallelism.
                let batch = parallel_map(chunk, threads, |run| {
                    state.backend.run_experiment(run, 1, observe)
                });
                for report in batch {
                    reports.push(report?);
                }
                // A client gone mid-sweep surfaces at the terminal send;
                // the compute itself always runs to completion so the
                // executor is never left wedged.
                let _ = reply(
                    conn,
                    id,
                    Response::Progress {
                        done: reports.len(),
                        total,
                    },
                );
            }
            Ok(ReportPayload::Sweep(reports))
        }
        Request::Status | Request::Metrics | Request::Shutdown => {
            unreachable!("handled by the session loop")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::EnsembleOnlyBackend;
    use goc_analysis::ensemble::EnsembleSpec;
    use goc_proto::{Client, ExperimentRequest};

    fn boot(config: ServerConfig) -> (SocketAddr, std::thread::JoinHandle<ServerSummary>) {
        let server = Server::bind(config, Box::new(EnsembleOnlyBackend)).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.run().unwrap());
        (addr, handle)
    }

    fn shutdown(addr: SocketAddr) {
        // Retried: a just-dropped client's session slot frees as soon
        // as its session thread observes the hangup.
        for _ in 0..100 {
            let mut client = Client::connect(addr).unwrap();
            let reply = client.request(Request::Shutdown).unwrap();
            match reply.terminal() {
                Response::Report(ReportPayload::ShutdownAck) => return,
                Response::Rejected {
                    reason: RejectReason::SessionLimit,
                    ..
                } => std::thread::sleep(Duration::from_millis(20)),
                other => panic!("unexpected shutdown outcome: {other:?}"),
            }
        }
        panic!("no session slot freed for the shutdown request");
    }

    #[test]
    fn status_round_trips_and_shutdown_drains() {
        let (addr, handle) = boot(ServerConfig::default());
        let mut client = Client::connect(addr).unwrap();
        let reply = client.request(Request::Status).unwrap();
        let Some(ReportPayload::Status(status)) = reply.report() else {
            panic!("expected a status report, got {:?}", reply.terminal());
        };
        assert_eq!(status.version, PROTOCOL_VERSION);
        assert!(!status.draining);
        assert_eq!(status.sessions, 1);
        shutdown(addr);
        let summary = handle.join().unwrap();
        assert_eq!(summary.served, 0, "status responses are not compute");
    }

    #[test]
    fn ensembles_run_over_the_wire_and_match_local_runs() {
        let (addr, handle) = boot(ServerConfig::default());
        let spec = EnsembleSpec::new(16, 4, 7);
        let mut client = Client::connect(addr).unwrap();
        let reply = client
            .request(Request::RunEnsemble { spec: spec.clone() })
            .unwrap();
        assert!(reply.accepted());
        let Some(ReportPayload::Ensemble(wire)) = reply.report() else {
            panic!("expected an ensemble report, got {:?}", reply.terminal());
        };
        let local = ensemble::run(&spec, 2).unwrap();
        assert_eq!(
            wire.deterministic_json(),
            local.deterministic_json(),
            "the wire changes nothing: same spec, same deterministic aggregate"
        );
        shutdown(addr);
        assert_eq!(handle.join().unwrap().served, 1);
    }

    #[test]
    fn caps_reject_by_name_before_any_work() {
        let config = ServerConfig {
            max_replicas: 8,
            max_miners: 100,
            max_sweep_runs: 2,
            ..ServerConfig::default()
        };
        let (addr, handle) = boot(config);
        let mut client = Client::connect(addr).unwrap();

        let over_replicas = client
            .request(Request::RunEnsemble {
                spec: EnsembleSpec::new(16, 9, 0),
            })
            .unwrap();
        assert_eq!(
            over_replicas.rejection().unwrap().0,
            RejectReason::ReplicaCap
        );

        let over_miners = client
            .request(Request::RunEnsemble {
                spec: EnsembleSpec::new(101, 2, 0),
            })
            .unwrap();
        assert_eq!(
            over_miners.rejection().unwrap().0,
            RejectReason::PopulationCap
        );

        let invalid = client
            .request(Request::RunEnsemble {
                spec: EnsembleSpec::new(16, 0, 0),
            })
            .unwrap();
        assert_eq!(invalid.rejection().unwrap().0, RejectReason::InvalidRequest);

        let unknown = client
            .request(Request::RunExperiment(ExperimentRequest::quick("fig1")))
            .unwrap();
        assert_eq!(
            unknown.rejection().unwrap().0,
            RejectReason::UnknownExperiment,
            "the ensemble-only backend has no registry"
        );

        let too_wide = client
            .request(Request::Sweep {
                runs: vec![
                    ExperimentRequest::quick("a"),
                    ExperimentRequest::quick("b"),
                    ExperimentRequest::quick("c"),
                ],
            })
            .unwrap();
        assert_eq!(too_wide.rejection().unwrap().0, RejectReason::SweepCap);

        let empty = client.request(Request::Sweep { runs: vec![] }).unwrap();
        assert_eq!(empty.rejection().unwrap().0, RejectReason::InvalidRequest);

        shutdown(addr);
        let summary = handle.join().unwrap();
        assert_eq!(summary.served, 0);
        assert!(summary.rejected >= 6);
    }

    #[test]
    fn session_budget_is_enforced() {
        let config = ServerConfig {
            session_budget: 2,
            ..ServerConfig::default()
        };
        let (addr, handle) = boot(config);
        let mut client = Client::connect(addr).unwrap();
        let spec = EnsembleSpec::new(8, 2, 0);
        for _ in 0..2 {
            let reply = client
                .request(Request::RunEnsemble { spec: spec.clone() })
                .unwrap();
            assert!(reply.report().is_some());
        }
        let broke = client
            .request(Request::RunEnsemble { spec: spec.clone() })
            .unwrap();
        assert_eq!(
            broke.rejection().unwrap().0,
            RejectReason::SessionBudgetExhausted
        );
        // Status stays free after the budget is spent.
        assert!(client.request(Request::Status).unwrap().report().is_some());
        shutdown(addr);
        handle.join().unwrap();
    }

    #[test]
    fn session_cap_refuses_extra_clients_by_name() {
        let config = ServerConfig {
            max_sessions: 1,
            ..ServerConfig::default()
        };
        let (addr, handle) = boot(config);
        let mut first = Client::connect(addr).unwrap();
        assert!(first.request(Request::Status).unwrap().report().is_some());
        let mut second = Client::connect(addr).unwrap();
        let refused = second.request(Request::Status).unwrap();
        assert_eq!(refused.rejection().unwrap().0, RejectReason::SessionLimit);
        drop(second);
        drop(first);
        shutdown(addr);
        handle.join().unwrap();
    }

    #[test]
    fn version_mismatch_is_rejected_by_name() {
        let (addr, handle) = boot(ServerConfig::default());
        let stream = TcpStream::connect(addr).unwrap();
        let mut conn = Connection::new(stream);
        let mut envelope = goc_proto::RequestEnvelope::new(5, Request::Status);
        envelope.version = 9;
        conn.send_request(&envelope).unwrap();
        let response = conn.recv_response().unwrap();
        assert_eq!(response.id, 5);
        assert!(matches!(
            response.response,
            Response::Rejected {
                reason: RejectReason::VersionMismatch,
                ..
            }
        ));
        drop(conn);
        shutdown(addr);
        handle.join().unwrap();
    }

    /// The value of the unlabeled sample `name` in a text exposition.
    fn sample(text: &str, name: &str) -> Option<u64> {
        text.lines()
            .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
    }

    #[test]
    fn metrics_round_trip_with_live_counters() {
        let server = Server::bind(ServerConfig::default(), Box::new(EnsembleOnlyBackend)).unwrap();
        let addr = server.local_addr().unwrap();
        let exporter = crate::HttpExporter::bind("127.0.0.1:0", server.observe()).unwrap();
        let http_addr = exporter.local_addr().unwrap();
        exporter.spawn();
        let handle = std::thread::spawn(move || server.run().unwrap());
        let mut client = Client::connect(addr).unwrap();
        // Plain `bind` still observes the ensembles it serves.
        let spec = EnsembleSpec::new(16, 3, 5);
        assert!(client
            .request(Request::RunEnsemble { spec })
            .unwrap()
            .report()
            .is_some());
        let reply = client.request(Request::Metrics).unwrap();
        let Some(ReportPayload::Metrics { text, snapshot }) = reply.report() else {
            panic!("expected a metrics report, got {:?}", reply.terminal());
        };
        assert!(snapshot.enabled);
        assert_eq!(
            snapshot.counter("goc_server_sessions_total"),
            Some(1),
            "this very session is the first counted one"
        );
        assert!(
            text.contains("goc_server_sessions_total 1"),
            "the text exposition carries the live counter: {text}"
        );
        assert_eq!(snapshot.gauge("goc_server_inflight"), Some(0));
        let mut scrape = TcpStream::connect(http_addr).unwrap();
        std::io::Write::write_all(&mut scrape, b"GET /metrics HTTP/1.1\r\n\r\n").unwrap();
        let mut http = String::new();
        std::io::Read::read_to_string(&mut scrape, &mut http).unwrap();
        for exposition in [text.as_str(), http.as_str()] {
            assert_eq!(
                sample(exposition, "goc_ensemble_replicas_finished_total"),
                Some(3)
            );
            assert_eq!(sample(exposition, "goc_dynamics_runs_total"), Some(3));
            assert!(sample(exposition, "goc_dynamics_steps_total") > Some(0));
        }
        shutdown(addr);
        handle.join().unwrap();
    }

    #[test]
    fn status_metrics_ride_only_on_v2_envelopes() {
        let (addr, handle) = boot(ServerConfig::default());
        // The stock client stamps Status with its v1 minimum, so the
        // payload keeps the exact v1 shape: no metrics.
        let mut client = Client::connect(addr).unwrap();
        let reply = client.request(Request::Status).unwrap();
        let Some(ReportPayload::Status(v1_status)) = reply.report() else {
            panic!("expected a status report");
        };
        assert!(v1_status.metrics.is_none());
        // A hand-stamped v2 envelope opts in to the snapshot.
        let stream = TcpStream::connect(addr).unwrap();
        let mut conn = Connection::new(stream);
        let mut envelope = goc_proto::RequestEnvelope::new(3, Request::Status);
        envelope.version = PROTOCOL_VERSION;
        conn.send_request(&envelope).unwrap();
        let response = conn.recv_response().unwrap();
        let Response::Report(ReportPayload::Status(v2_status)) = &response.response else {
            panic!("expected a status report, got {:?}", response.response);
        };
        let snapshot = v2_status
            .metrics
            .as_ref()
            .expect("v2 status carries metrics");
        assert_eq!(snapshot.counter("goc_server_sessions_total"), Some(2));
        drop(conn);
        shutdown(addr);
        handle.join().unwrap();
    }

    #[test]
    fn drain_wake_ping_is_not_counted_and_ledgers_agree() {
        let server = Server::bind(ServerConfig::default(), Box::new(EnsembleOnlyBackend)).unwrap();
        let addr = server.local_addr().unwrap();
        let registry = server.observe().registry;
        let handle = std::thread::spawn(move || server.run().unwrap());
        let mut client = Client::connect(addr).unwrap();
        let served = client
            .request(Request::RunEnsemble {
                spec: EnsembleSpec::new(8, 2, 0),
            })
            .unwrap();
        assert!(served.report().is_some());
        drop(client);
        shutdown(addr);
        let summary = handle.join().unwrap();
        assert_eq!(
            summary.rejected, 0,
            "the drain wake-up ping is plumbing, not a refused session"
        );
        assert_eq!(summary.served, 1);
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("goc_server_served_total"),
            Some(summary.served)
        );
        assert_eq!(
            snap.counter_family_total("goc_server_rejected_total"),
            summary.rejected,
            "both rejection ledgers move through one seam"
        );
        assert_eq!(snap.gauge("goc_server_inflight"), Some(0));
    }

    #[test]
    fn draining_refuses_new_work_but_answers_status() {
        let (addr, handle) = boot(ServerConfig::default());
        let mut client = Client::connect(addr).unwrap();
        shutdown(addr);
        // The pre-drain session still gets Status answers and named
        // refusals for new compute until it hangs up.
        let status = client.request(Request::Status).unwrap();
        let Some(ReportPayload::Status(s)) = status.report() else {
            panic!("status must be answered while draining");
        };
        assert!(s.draining);
        let refused = client
            .request(Request::RunEnsemble {
                spec: EnsembleSpec::new(8, 2, 0),
            })
            .unwrap();
        assert_eq!(refused.rejection().unwrap().0, RejectReason::Draining);
        drop(client);
        handle.join().unwrap();
    }

    #[test]
    fn traced_requests_reconstruct_complete_timelines_by_correlation_id() {
        let tracer = TraceRecorder::new(4096);
        let observe = Observe {
            tracer: tracer.clone(),
            ..Observe::off()
        };
        let server = Server::bind_observed(
            ServerConfig::default(),
            Box::new(EnsembleOnlyBackend),
            observe,
        )
        .unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.run().unwrap());

        // Hand-stamped envelopes so the *wire* correlation ids are
        // known: 777 is served, 778 is refused by validation.
        let stream = TcpStream::connect(addr).unwrap();
        let mut conn = Connection::new(stream);
        let spec = EnsembleSpec::new(16, 4, 7);
        conn.send_request(&goc_proto::RequestEnvelope::new(
            777,
            Request::RunEnsemble { spec },
        ))
        .unwrap();
        loop {
            let response = conn.recv_response().unwrap();
            assert_eq!(response.id, 777);
            match response.response {
                Response::Accepted | Response::Progress { .. } => continue,
                Response::Report(ReportPayload::Ensemble(_)) => break,
                other => panic!("expected an ensemble report, got {other:?}"),
            }
        }
        conn.send_request(&goc_proto::RequestEnvelope::new(
            778,
            Request::RunEnsemble {
                spec: EnsembleSpec::new(16, 0, 0),
            },
        ))
        .unwrap();
        let refused = conn.recv_response().unwrap();
        assert_eq!(refused.id, 778);
        assert!(matches!(refused.response, Response::Rejected { .. }));
        drop(conn);
        shutdown(addr);
        handle.join().unwrap();

        let snap = tracer.snapshot();
        assert_eq!(snap.dropped, 0, "nothing overwritten at this capacity");

        // The served request's timeline is complete — admitted, then
        // the serve span opens, computes, and closes after the reply —
        // and lives on one session lane.
        let timeline = snap.timeline(777);
        use goc_telemetry::trace::TracePhase;
        let shape: Vec<(TraceEventKind, TracePhase)> =
            timeline.iter().map(|e| (e.kind, e.phase)).collect();
        assert_eq!(
            shape,
            vec![
                (TraceEventKind::RequestAdmit, TracePhase::Instant),
                (TraceEventKind::RequestServe, TracePhase::Begin),
                (TraceEventKind::RequestServe, TracePhase::End),
            ]
        );
        assert!(
            timeline.iter().all(|e| e.lane == timeline[0].lane),
            "one session, one lane"
        );

        // The refused request leaves exactly its rejection instant.
        let refusal = snap.timeline(778);
        assert_eq!(refusal.len(), 1);
        assert_eq!(refusal[0].kind, TraceEventKind::RequestReject);

        // Backend compute flows onto the same recorder: the ensemble's
        // replica events land between the serve span's endpoints.
        let replicas = snap
            .events
            .iter()
            .filter(|e| e.kind == TraceEventKind::ReplicaStart)
            .count();
        assert_eq!(replicas, 4, "one start per requested replica");
        let (begin, end) = (timeline[1].nanos, timeline[2].nanos);
        assert!(snap
            .events
            .iter()
            .filter(|e| e.kind == TraceEventKind::ReplicaStart)
            .all(|e| begin <= e.nanos && e.nanos <= end));

        // And the Chrome dump carries the request timeline out intact.
        let json = snap.to_chrome_json();
        assert!(json.contains("\"request_admit\""));
        assert!(json.contains("\"correlation\":777"));
    }
}
