//! The error ledger: an admitted request that ends in a non-panic
//! `Error` frame is counted on `goc_server_errors_total`, apart from
//! `served` and `panics`, so every accepted request lands in exactly one
//! terminal counter. The session survives the error and serves the next
//! request normally.

use std::net::SocketAddr;
use std::time::Duration;

use goc_analysis::ensemble::EnsembleSpec;
use goc_analysis::RunReport;
use goc_proto::{Client, ExperimentRequest, RejectReason, ReportPayload, Request, Response};
use goc_server::{Backend, Server, ServerConfig};
use goc_telemetry::{Observe, Registry};

/// Serves one experiment, `fail`, which returns an error.
struct FailingBackend;

impl Backend for FailingBackend {
    fn has_experiment(&self, name: &str) -> bool {
        name == "fail"
    }

    fn run_experiment(
        &self,
        _request: &ExperimentRequest,
        _threads: usize,
        _observe: &Observe,
    ) -> Result<RunReport, String> {
        Err("fail went the experiment".to_string())
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

/// `(errors, served, panics)` as the registry reads them now.
fn ledger(registry: &Registry) -> (Option<u64>, Option<u64>, Option<u64>) {
    let snap = registry.snapshot();
    (
        snap.counter("goc_server_errors_total"),
        snap.counter("goc_server_served_total"),
        snap.counter("goc_server_panics_total"),
    )
}

/// Sends `failing` on one session and expects `Accepted` then an `Error`
/// whose detail contains `needle`, counted on the error ledger alone;
/// then a normal ensemble on the same session, which is served.
fn assert_error_is_counted(failing: Request, needle: &str) {
    let server = Server::bind(ServerConfig::default(), Box::new(FailingBackend)).unwrap();
    let addr = server.local_addr().unwrap();
    let registry = server.observe().registry;
    assert_eq!(
        ledger(&registry),
        (Some(0), Some(0), Some(0)),
        "pre-registered at bind"
    );
    let handle = std::thread::spawn(move || server.run().unwrap());

    let mut client = Client::connect(addr).unwrap();
    let reply = client.request(failing).expect("the session answers");
    assert!(reply.accepted(), "{:?}", reply.terminal());
    match reply.terminal() {
        Response::Error { detail } => assert!(detail.contains(needle), "{detail}"),
        other => panic!("expected an Error frame, got {other:?}"),
    }
    assert_eq!(ledger(&registry), (Some(1), Some(0), Some(0)));

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
    assert_eq!(summary.served, 1, "the failed request is not served");
    assert_eq!(summary.rejected, 0, "nor is it a named refusal");
    assert_eq!(ledger(&registry), (Some(1), Some(1), Some(0)));
}

#[test]
fn a_failing_experiment_is_counted_as_an_error() {
    assert_error_is_counted(
        Request::RunExperiment(ExperimentRequest::quick("fail")),
        "fail went the experiment",
    );
}

#[test]
fn an_ensemble_retiring_an_unknown_coin_is_counted_as_an_error() {
    // Coin 99 of the fixture's 3: admission does not look inside the
    // churn envelope, so the request is accepted and fails when the
    // replicas lower their universe.
    let spec: EnsembleSpec = serde_json::from_str(
        r#"{"name":"coin99","replicas":2,"miners":1000,"horizon_days":30.0,"seed":7,
            "churn":{"cohorts":[],"coins":[{"day":1.0,"coin":99,"event":"Retire"}]}}"#,
    )
    .expect("a well-formed spec");
    assert_error_is_counted(Request::RunEnsemble { spec }, "coin index 99 out of range");
}
