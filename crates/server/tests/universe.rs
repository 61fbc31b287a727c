//! Universe reuse on the live server: the one `Universes` slot a server
//! owns lets consecutive `RunEnsemble` requests over the same
//! population fork one universe, misses whenever the population
//! changes, and is never touched by scheduled churny ensembles (which
//! build a universe per replica). Reuse must never change a report.

use std::net::SocketAddr;
use std::time::Duration;

use goc_analysis::ensemble::{self, EnsembleSpec};
use goc_learning::SchedulerKind;
use goc_proto::{Client, RejectReason, ReportPayload, Request, Response};
use goc_server::{EnsembleOnlyBackend, Server, ServerConfig};

const BUILDS: &str = "goc_ensemble_universe_builds_total";

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

/// Serves `spec` on `client` and checks the report against a local run.
fn serve_and_compare(client: &mut Client, spec: &EnsembleSpec) {
    let reply = client
        .request(Request::RunEnsemble { spec: spec.clone() })
        .unwrap();
    let Some(ReportPayload::Ensemble(wire)) = reply.report() else {
        panic!("expected an ensemble report, got {:?}", reply.terminal());
    };
    let local = ensemble::run(spec, 2).unwrap();
    assert_eq!(
        wire.deterministic_json(),
        local.deterministic_json(),
        "{}: reuse changed the report",
        spec.name
    );
}

#[test]
fn the_server_reuses_its_last_universe_and_only_where_it_should() {
    let config = ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    };
    let server = Server::bind(config, Box::new(EnsembleOnlyBackend)).unwrap();
    let addr = server.local_addr().unwrap();
    let registry = server.observe().registry;
    let handle = std::thread::spawn(move || server.run().unwrap());
    let builds = || registry.snapshot().counter(BUILDS);

    // A, A, B, A: the single slot hits on the second A and misses on B
    // and again on the A after it.
    let a = |seed| EnsembleSpec::new(1000, 2, seed);
    let b = EnsembleSpec::new(1200, 2, 4);
    let mut client = Client::connect(addr).unwrap();
    for spec in [a(1), a(2), b, a(3)] {
        serve_and_compare(&mut client, &spec);
    }
    drop(client);
    assert_eq!(builds(), Some(3));

    // Scheduled churny ensembles, one per scheduler, over two
    // concurrent sessions: none of them reads or writes the slot.
    let churny: Vec<EnsembleSpec> = SchedulerKind::ALL
        .iter()
        .enumerate()
        .map(|(i, &kind)| {
            EnsembleSpec::new(24 + 4 * i, 2, 40 + i as u64)
                .with_scheduler(kind)
                .with_churn(10)
        })
        .collect();
    std::thread::scope(|scope| {
        for half in churny.chunks(churny.len() / 2) {
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for spec in half {
                    serve_and_compare(&mut client, spec);
                }
            });
        }
    });
    assert_eq!(
        builds(),
        Some(3),
        "scheduled churny specs build no universe"
    );

    shutdown(addr);
    let summary = handle.join().unwrap();
    assert_eq!(summary.served, 4 + SchedulerKind::ALL.len() as u64);
    assert_eq!(summary.rejected, 0);
}
