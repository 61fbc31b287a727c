//! Panic containment: a backend that panics mid-request (a sweep entry
//! included), or while the request is still in admission, must cost the
//! client one `Error` frame, not its session. The panic is counted on
//! `goc_server_panics_total`, the in-flight slot comes back, and the
//! served/rejected ledger stays exact through the drain.

use std::net::SocketAddr;
use std::time::Duration;

use goc_analysis::ensemble::EnsembleSpec;
use goc_analysis::RunReport;
use goc_proto::{Client, ExperimentRequest, RejectReason, ReportPayload, Request, Response};
use goc_server::{Backend, Server, ServerConfig};
use goc_telemetry::Observe;

/// Serves one experiment, `boom`, which panics.
struct PanicBackend;

impl Backend for PanicBackend {
    fn has_experiment(&self, name: &str) -> bool {
        name == "boom"
    }

    fn run_experiment(
        &self,
        _request: &ExperimentRequest,
        _threads: usize,
        _observe: &Observe,
    ) -> Result<RunReport, String> {
        panic!("boom went the experiment")
    }
}

fn shutdown(addr: SocketAddr) {
    for _ in 0..100 {
        let mut client = Client::connect(addr).unwrap();
        match client.request(Request::Shutdown).unwrap().terminal() {
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
fn a_panicking_backend_answers_error_and_keeps_the_session() {
    // One in-flight slot: if the panic leaked it, the follow-up
    // request would be refused with `InFlightLimit`.
    let config = ServerConfig {
        max_inflight: 1,
        ..ServerConfig::default()
    };
    let server = Server::bind(config, Box::new(PanicBackend)).unwrap();
    let addr = server.local_addr().unwrap();
    let registry = server.observe().registry;
    let handle = std::thread::spawn(move || server.run().unwrap());

    let mut client = Client::connect(addr).unwrap();
    let reply = client
        .request(Request::RunExperiment(ExperimentRequest::quick("boom")))
        .expect("the session answers instead of hanging up");
    assert!(reply.accepted());
    match reply.terminal() {
        Response::Error { detail } => {
            assert!(detail.contains("boom went the experiment"), "{detail}")
        }
        other => panic!("expected an Error frame, got {other:?}"),
    }

    // Same session, next request: served normally.
    let next = client
        .request(Request::RunEnsemble {
            spec: EnsembleSpec::new(16, 2, 3),
        })
        .unwrap();
    assert!(
        matches!(next.report(), Some(ReportPayload::Ensemble(_))),
        "{:?}",
        next.terminal()
    );
    drop(client);

    shutdown(addr);
    let summary = handle.join().unwrap();
    assert_eq!(summary.served, 1, "the panicked request is not served");
    assert_eq!(summary.rejected, 0, "nor is it a named refusal");
    let snap = registry.snapshot();
    assert_eq!(snap.counter("goc_server_panics_total"), Some(1));
    assert_eq!(snap.counter("goc_server_served_total"), Some(1));
    assert_eq!(snap.counter_family_total("goc_server_rejected_total"), 0);
    assert_eq!(snap.gauge("goc_server_inflight"), Some(0));
}

#[test]
fn a_sweep_whose_run_panics_answers_error_and_keeps_the_session() {
    // Two workers, so the panic surfaces from the parallel fan-out; one
    // in-flight slot, so a leaked slot would refuse the follow-up.
    let config = ServerConfig {
        max_inflight: 1,
        threads: 2,
        ..ServerConfig::default()
    };
    let server = Server::bind(config, Box::new(PanicBackend)).unwrap();
    let addr = server.local_addr().unwrap();
    let registry = server.observe().registry;
    let handle = std::thread::spawn(move || server.run().unwrap());

    let mut client = Client::connect(addr).unwrap();
    let reply = client
        .request(Request::Sweep {
            runs: vec![ExperimentRequest::quick("boom"); 2],
        })
        .expect("the session answers instead of hanging up");
    assert!(reply.accepted());
    match reply.terminal() {
        Response::Error { detail } => {
            assert!(detail.contains("boom went the experiment"), "{detail}")
        }
        other => panic!("expected an Error frame, got {other:?}"),
    }
    assert_eq!(registry.snapshot().gauge("goc_server_inflight"), Some(0));

    // Same session, next request: served normally.
    let next = client
        .request(Request::RunEnsemble {
            spec: EnsembleSpec::new(16, 2, 3),
        })
        .unwrap();
    assert!(
        matches!(next.report(), Some(ReportPayload::Ensemble(_))),
        "{:?}",
        next.terminal()
    );
    drop(client);

    shutdown(addr);
    let summary = handle.join().unwrap();
    assert_eq!(summary.served, 1, "the panicked sweep is not served");
    assert_eq!(summary.rejected, 0);
    let snap = registry.snapshot();
    assert_eq!(snap.counter("goc_server_panics_total"), Some(1));
    assert_eq!(snap.counter("goc_server_served_total"), Some(1));
    assert_eq!(snap.gauge("goc_server_inflight"), Some(0));
}

/// Panics in admission: the experiment lookup itself blows up.
struct PanicAdmissionBackend;

impl Backend for PanicAdmissionBackend {
    fn has_experiment(&self, _name: &str) -> bool {
        panic!("boom went the lookup")
    }

    fn run_experiment(
        &self,
        _request: &ExperimentRequest,
        _threads: usize,
        _observe: &Observe,
    ) -> Result<RunReport, String> {
        unreachable!("admission never lets a request through")
    }
}

#[test]
fn a_panic_in_admission_answers_error_and_keeps_the_session() {
    let server = Server::bind(ServerConfig::default(), Box::new(PanicAdmissionBackend)).unwrap();
    let addr = server.local_addr().unwrap();
    let registry = server.observe().registry;
    let handle = std::thread::spawn(move || server.run().unwrap());

    let mut client = Client::connect(addr).unwrap();
    let reply = client
        .request(Request::RunExperiment(ExperimentRequest::quick("fig1")))
        .expect("the session answers instead of hanging up");
    assert!(!reply.accepted(), "the panic came before admission");
    match reply.terminal() {
        Response::Error { detail } => assert!(detail.contains("boom went the lookup"), "{detail}"),
        other => panic!("expected an Error frame, got {other:?}"),
    }

    // Same session, next request: served normally.
    let next = client
        .request(Request::RunEnsemble {
            spec: EnsembleSpec::new(16, 2, 3),
        })
        .unwrap();
    assert!(
        matches!(next.report(), Some(ReportPayload::Ensemble(_))),
        "{:?}",
        next.terminal()
    );
    drop(client);

    shutdown(addr);
    let summary = handle.join().unwrap();
    assert_eq!(summary.served, 1);
    assert_eq!(summary.rejected, 0);
    let snap = registry.snapshot();
    assert_eq!(snap.counter("goc_server_panics_total"), Some(1));
    assert_eq!(snap.counter("goc_server_served_total"), Some(1));
    assert_eq!(snap.counter_family_total("goc_server_rejected_total"), 0);
    assert_eq!(snap.gauge("goc_server_inflight"), Some(0));
}
