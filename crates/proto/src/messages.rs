//! The request/response vocabulary of the service protocol.
//!
//! Messages are externally-tagged serde enums (the vendored derive's
//! default, matching real serde): a unit variant renders as a bare
//! string (`"Status"`), a data variant as a single-key object
//! (`{"RunEnsemble": {...}}`). Every frame on the wire is an envelope —
//! [`RequestEnvelope`] or [`ResponseEnvelope`] — carrying the protocol
//! version and the client-chosen correlation id, so a future v2 can
//! reject v1 frames by name instead of by parse failure.

use std::fmt;

use goc_analysis::ensemble::{EnsembleReport, EnsembleSpec};
use goc_analysis::RunReport;
use goc_telemetry::MetricsSnapshot;
use serde::{Deserialize, Serialize};

use crate::connection::ProtoError;

/// The newest protocol version this build speaks. v2 added the
/// telemetry surface: [`Request::Metrics`], the metrics report payload,
/// and the optional [`ServerStatus::metrics`] snapshot.
pub const PROTOCOL_VERSION: u32 = 2;

/// The oldest protocol version still accepted. Version gating is
/// per-request: a v1 frame is served the v1 shape of its reply (a
/// `Status` answer omits the metrics snapshot), never a malformed-frame
/// rejection.
pub const MIN_PROTOCOL_VERSION: u32 = 1;

/// One experiment run: a registry name plus the context knobs a caller
/// may set. It is the wire's `RunExperiment` payload and `Sweep` entry,
/// and also the entry of a `goc sweep --spec` file
/// (`goc-experiments::SweepSpec`), so both parse the same JSON.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentRequest {
    /// Registry name (`goc list`).
    pub experiment: String,
    /// Seed offset (default 0).
    pub seed: Option<u64>,
    /// Quick mode (default false).
    pub quick: Option<bool>,
    /// Pin scheduler sweeps to one kind by serde variant name
    /// (e.g. `"MinGain"`).
    pub scheduler: Option<goc_learning::SchedulerKind>,
    /// Turnover target in percent for the `churn` experiment.
    pub turnover_pct: Option<u32>,
    /// Flagship replica count for the `ensemble` experiment.
    pub replicas: Option<usize>,
}

impl ExperimentRequest {
    /// A quick run of the named experiment at seed 0.
    pub fn quick(experiment: &str) -> Self {
        ExperimentRequest {
            experiment: experiment.to_string(),
            seed: Some(0),
            quick: Some(true),
            scheduler: None,
            turnover_pct: None,
            replicas: None,
        }
    }
}

/// A client request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Run one registered experiment and stream back its report.
    RunExperiment(ExperimentRequest),
    /// Run a Monte-Carlo ensemble ([`EnsembleSpec`]) and stream back
    /// its report; the deterministic aggregate is bit-identical to a
    /// local run of the same spec.
    RunEnsemble {
        /// The declarative ensemble to execute.
        spec: EnsembleSpec,
    },
    /// Fan a list of experiment runs across the server's worker pool;
    /// reports come back in input order, with a `Progress` frame per
    /// completed chunk.
    Sweep {
        /// The runs, in output order.
        runs: Vec<ExperimentRequest>,
    },
    /// Ask for the server's load/limit counters (never queued — always
    /// answered, even while draining).
    Status,
    /// Ask for the server's telemetry registry as Prometheus-style text
    /// exposition (v2; free and always answered, like `Status`).
    Metrics,
    /// Ask the server to drain in-flight work, refuse new sessions,
    /// and exit its accept loop.
    Shutdown,
}

impl Request {
    /// Short display name of the request kind (logs and tables).
    pub fn kind(&self) -> &'static str {
        match self {
            Request::RunExperiment(_) => "run_experiment",
            Request::RunEnsemble { .. } => "run_ensemble",
            Request::Sweep { .. } => "sweep",
            Request::Status => "status",
            Request::Metrics => "metrics",
            Request::Shutdown => "shutdown",
        }
    }

    /// The oldest protocol version that understands this request — what
    /// [`RequestEnvelope::new`] stamps on the frame, so a v2 client
    /// speaks plain v1 to a v1 server for everything but the requests
    /// that did not exist then.
    pub fn min_version(&self) -> u32 {
        match self {
            Request::Metrics => 2,
            _ => MIN_PROTOCOL_VERSION,
        }
    }
}

/// A versioned request frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestEnvelope {
    /// Protocol version ([`PROTOCOL_VERSION`]).
    pub version: u32,
    /// Client-chosen correlation id, echoed on every response frame.
    pub id: u64,
    /// The request itself.
    pub request: Request,
}

impl RequestEnvelope {
    /// Wraps a request at the oldest protocol version that understands
    /// it ([`Request::min_version`]) — v1 for the classic requests, so
    /// the frame stays acceptable to v1 servers; v2 only for requests
    /// v1 never had.
    pub fn new(id: u64, request: Request) -> Self {
        RequestEnvelope {
            version: request.min_version(),
            id,
            request,
        }
    }

    /// Checks the frame's version against the accepted window
    /// ([`MIN_PROTOCOL_VERSION`]`..=`[`PROTOCOL_VERSION`]).
    ///
    /// # Errors
    ///
    /// [`ProtoError::Version`] naming both versions on mismatch.
    pub fn check_version(&self) -> Result<(), ProtoError> {
        if (MIN_PROTOCOL_VERSION..=PROTOCOL_VERSION).contains(&self.version) {
            Ok(())
        } else {
            Err(ProtoError::Version {
                got: self.version,
                want: PROTOCOL_VERSION,
            })
        }
    }
}

/// Why a request (or session) was refused. Every admission-control
/// path rejects with one of these names — tests assert on
/// [`RejectReason::name`], not on prose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RejectReason {
    /// The frame's protocol version is not [`PROTOCOL_VERSION`].
    VersionMismatch,
    /// The server is at its concurrent-session cap.
    SessionLimit,
    /// The bounded in-flight queue is full.
    InFlightLimit,
    /// This session spent its per-session request budget.
    SessionBudgetExhausted,
    /// An ensemble request exceeds the server's replica cap.
    ReplicaCap,
    /// A request's population exceeds the server's miner cap.
    PopulationCap,
    /// A sweep names more runs than the server's sweep cap.
    SweepCap,
    /// The named experiment is not in the registry.
    UnknownExperiment,
    /// The request is structurally valid JSON but semantically
    /// degenerate (e.g. an empty sweep, an invalid ensemble spec).
    InvalidRequest,
    /// The server is draining for shutdown and refuses new work.
    Draining,
    /// The frame was not a valid protocol message.
    MalformedFrame,
    /// The frame exceeded the connection's size cap.
    FrameTooLarge,
}

impl RejectReason {
    /// The stable machine-readable name (snake_case).
    pub fn name(self) -> &'static str {
        match self {
            RejectReason::VersionMismatch => "version_mismatch",
            RejectReason::SessionLimit => "session_limit",
            RejectReason::InFlightLimit => "in_flight_limit",
            RejectReason::SessionBudgetExhausted => "session_budget_exhausted",
            RejectReason::ReplicaCap => "replica_cap",
            RejectReason::PopulationCap => "population_cap",
            RejectReason::SweepCap => "sweep_cap",
            RejectReason::UnknownExperiment => "unknown_experiment",
            RejectReason::InvalidRequest => "invalid_request",
            RejectReason::Draining => "draining",
            RejectReason::MalformedFrame => "malformed_frame",
            RejectReason::FrameTooLarge => "frame_too_large",
        }
    }
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The server's load/limit counters, answered to [`Request::Status`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerStatus {
    /// Protocol version the server speaks.
    pub version: u32,
    /// Live client sessions.
    pub sessions: usize,
    /// Compute requests currently executing or queued.
    pub inflight: usize,
    /// Requests served to completion since boot.
    pub served: u64,
    /// Requests rejected by admission control since boot.
    pub rejected: u64,
    /// Whether the server is draining for shutdown.
    pub draining: bool,
    /// Concurrent-session cap.
    pub max_sessions: usize,
    /// Bounded in-flight queue depth.
    pub max_inflight: usize,
    /// Telemetry snapshot (v2; populated only when the requesting frame
    /// spoke ≥ v2). The vendored serde maps a missing key to `None`, so
    /// a v1 `Status` answer without this field still deserializes here,
    /// and a v1 client ignores the extra key — both directions stay
    /// well-formed.
    pub metrics: Option<MetricsSnapshot>,
}

/// The result payload of a completed request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ReportPayload {
    /// A [`Request::RunExperiment`] result.
    Experiment(RunReport),
    /// A [`Request::RunEnsemble`] result (spec + deterministic
    /// aggregate + timing).
    Ensemble(EnsembleReport),
    /// A [`Request::Sweep`] result, in input order.
    Sweep(Vec<RunReport>),
    /// A [`Request::Status`] result.
    Status(ServerStatus),
    /// A [`Request::Metrics`] result (v2): the registry rendered as
    /// Prometheus-style text exposition, plus the structured snapshot
    /// for JSON consumers.
    Metrics {
        /// Prometheus-style text exposition of the server's registry.
        text: String,
        /// The same registry state in structured form.
        snapshot: MetricsSnapshot,
    },
    /// A [`Request::Shutdown`] acknowledgement; the server drains and
    /// exits after sending it.
    ShutdownAck,
}

impl ReportPayload {
    /// Short display name of the payload kind.
    pub fn kind(&self) -> &'static str {
        match self {
            ReportPayload::Experiment(_) => "experiment",
            ReportPayload::Ensemble(_) => "ensemble",
            ReportPayload::Sweep(_) => "sweep",
            ReportPayload::Status(_) => "status",
            ReportPayload::Metrics { .. } => "metrics",
            ReportPayload::ShutdownAck => "shutdown_ack",
        }
    }
}

/// One streamed response frame. A request is answered by zero or one
/// `Accepted`, any number of `Progress`, and exactly one *terminal*
/// frame (`Report`, `Rejected`, or `Error`).
///
/// `Report` dwarfs the control variants, but a `Response` only ever
/// exists transiently — built, framed onto the wire, dropped — so the
/// footprint is per-frame, never per-collection, and boxing would tax
/// every construction and match site for nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// The request passed admission control and is queued/executing.
    Accepted,
    /// Work progress (sweeps report per completed chunk).
    Progress {
        /// Completed work units.
        done: usize,
        /// Total work units.
        total: usize,
    },
    /// The completed result (terminal).
    Report(ReportPayload),
    /// Refused by admission control, by name (terminal).
    Rejected {
        /// The named reason.
        reason: RejectReason,
        /// Human-readable detail (limits, counts).
        detail: String,
    },
    /// The request was admitted but failed while executing (terminal).
    Error {
        /// Stringified underlying error.
        detail: String,
    },
}

impl Response {
    /// Whether this frame ends the response stream for its request.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            Response::Report(_) | Response::Rejected { .. } | Response::Error { .. }
        )
    }
}

/// A versioned response frame, echoing the request's correlation id.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResponseEnvelope {
    /// Protocol version ([`PROTOCOL_VERSION`]).
    pub version: u32,
    /// The correlation id of the request this frame answers (0 for
    /// rejections of frames that could not be parsed at all).
    pub id: u64,
    /// The response itself.
    pub response: Response,
}

impl ResponseEnvelope {
    /// Wraps a response at the current protocol version.
    pub fn new(id: u64, response: Response) -> Self {
        ResponseEnvelope {
            version: PROTOCOL_VERSION,
            id,
            response,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_envelopes_round_trip_through_json() {
        let requests = vec![
            Request::Status,
            Request::Shutdown,
            Request::RunExperiment(ExperimentRequest::quick("fig1")),
            Request::RunEnsemble {
                spec: EnsembleSpec::new(64, 4, 7),
            },
            Request::Sweep {
                runs: vec![
                    ExperimentRequest::quick("prop1"),
                    ExperimentRequest::quick("cross"),
                ],
            },
        ];
        for (i, request) in requests.into_iter().enumerate() {
            let envelope = RequestEnvelope::new(i as u64, request);
            let json = serde_json::to_string(&envelope).unwrap();
            let back: RequestEnvelope = serde_json::from_str(&json).unwrap();
            assert_eq!(envelope, back);
            assert!(envelope.check_version().is_ok());
        }
    }

    #[test]
    fn version_mismatch_is_a_named_error() {
        let mut envelope = RequestEnvelope::new(1, Request::Status);
        envelope.version = 99;
        let err = envelope.check_version().unwrap_err();
        assert!(err.to_string().contains("99"));
        assert!(err.to_string().contains('2'));
        envelope.version = 0;
        assert!(envelope.check_version().is_err());
    }

    #[test]
    fn both_protocol_versions_are_accepted_and_stamped_by_need() {
        // Classic requests go out as v1 — acceptable to v1 servers.
        let classic = RequestEnvelope::new(1, Request::Status);
        assert_eq!(classic.version, 1);
        assert!(classic.check_version().is_ok());
        // The telemetry request only exists in v2.
        let metrics = RequestEnvelope::new(2, Request::Metrics);
        assert_eq!(metrics.version, 2);
        assert!(metrics.check_version().is_ok());
        assert_eq!(Request::Metrics.kind(), "metrics");
    }

    #[test]
    fn v1_status_payloads_still_deserialize() {
        // A v1 server's Status answer has no `metrics` key; the field
        // must come back `None`, not a parse failure.
        let v1_json = "{\"version\":1,\"sessions\":1,\"inflight\":0,\"served\":3,\
                       \"rejected\":0,\"draining\":false,\"max_sessions\":8,\
                       \"max_inflight\":4}";
        let status: ServerStatus = serde_json::from_str(v1_json).unwrap();
        assert_eq!(status.metrics, None);
        assert_eq!(status.served, 3);
        // And the v2 form round-trips, metrics included.
        let full = ServerStatus {
            version: PROTOCOL_VERSION,
            sessions: 1,
            inflight: 0,
            served: 3,
            rejected: 1,
            draining: false,
            max_sessions: 8,
            max_inflight: 4,
            metrics: Some(MetricsSnapshot::empty()),
        };
        let json = serde_json::to_string(&full).unwrap();
        let back: ServerStatus = serde_json::from_str(&json).unwrap();
        assert_eq!(full, back);
    }

    #[test]
    fn metrics_payloads_round_trip() {
        let payload = ReportPayload::Metrics {
            text: "# TYPE goc_server_served_total counter\n".to_string(),
            snapshot: MetricsSnapshot::empty(),
        };
        assert_eq!(payload.kind(), "metrics");
        let json = serde_json::to_string(&payload).unwrap();
        let back: ReportPayload = serde_json::from_str(&json).unwrap();
        assert_eq!(payload, back);
    }

    #[test]
    fn reject_reasons_have_stable_names() {
        assert_eq!(RejectReason::SessionLimit.name(), "session_limit");
        assert_eq!(RejectReason::InFlightLimit.to_string(), "in_flight_limit");
        let json = serde_json::to_string(&RejectReason::ReplicaCap).unwrap();
        assert_eq!(json, "\"ReplicaCap\"");
    }

    #[test]
    fn terminal_frames_are_classified() {
        assert!(!Response::Accepted.is_terminal());
        assert!(!Response::Progress { done: 1, total: 2 }.is_terminal());
        assert!(Response::Report(ReportPayload::ShutdownAck).is_terminal());
        assert!(Response::Rejected {
            reason: RejectReason::Draining,
            detail: String::new(),
        }
        .is_terminal());
        assert!(Response::Error {
            detail: "boom".into(),
        }
        .is_terminal());
    }

    #[test]
    fn request_kinds_name_every_variant() {
        assert_eq!(Request::Status.kind(), "status");
        assert_eq!(Request::Shutdown.kind(), "shutdown");
        assert_eq!(
            Request::RunEnsemble {
                spec: EnsembleSpec::new(8, 2, 0)
            }
            .kind(),
            "run_ensemble"
        );
    }
}
