//! Mid-stream disconnect tests: a client that vanishes — before its
//! first frame, mid-frame, or after `Accepted` with a compute request
//! already running — must cost the server nothing but its own session.
//! The session slot and the in-flight slot are both released, the
//! executor is not wedged, and the next client is served normally. A
//! client that stays connected but never reads its replies cannot wedge
//! the drain either.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use goc_analysis::ensemble::EnsembleSpec;
use goc_proto::{
    Client, Connection, RejectReason, ReportPayload, Request, RequestEnvelope, Response,
};
use goc_server::{EnsembleOnlyBackend, Server, ServerConfig, ServerSummary};

/// How long a test waits for the server to recover from a hangup
/// before declaring the executor wedged.
const PATIENCE: Duration = Duration::from_secs(30);

/// How long a drain may take to join a session whose client stopped
/// reading: the session's write timeout plus generous slack.
const DRAIN_BOUND: Duration = Duration::from_secs(15);

fn boot(config: ServerConfig) -> (SocketAddr, JoinHandle<ServerSummary>) {
    let server = Server::bind(config, Box::new(EnsembleOnlyBackend)).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().unwrap());
    (addr, handle)
}

/// Shuts the server down, retrying while a just-dropped client's
/// session slot is still being released.
fn shutdown(addr: SocketAddr) {
    let deadline = Instant::now() + PATIENCE;
    while Instant::now() < deadline {
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

/// Keeps requesting `spec` until the server has a session and an
/// in-flight slot for it; panics if it never recovers within
/// [`PATIENCE`] (the wedged-executor failure this file exists for).
fn request_until_served(addr: SocketAddr, spec: EnsembleSpec) {
    let deadline = Instant::now() + PATIENCE;
    while Instant::now() < deadline {
        let mut client = match Client::connect(addr) {
            Ok(client) => client,
            Err(_) => {
                std::thread::sleep(Duration::from_millis(20));
                continue;
            }
        };
        let reply = client
            .request(Request::RunEnsemble { spec: spec.clone() })
            .unwrap();
        match reply.terminal() {
            Response::Report(ReportPayload::Ensemble(report)) => {
                assert_eq!(report.spec.replicas, spec.replicas);
                return;
            }
            Response::Rejected {
                reason: RejectReason::SessionLimit | RejectReason::InFlightLimit,
                ..
            } => std::thread::sleep(Duration::from_millis(20)),
            other => panic!("unexpected outcome: {other:?}"),
        }
    }
    panic!("the server never recovered a slot for the follow-up client");
}

#[test]
fn disconnect_after_accepted_frees_the_only_inflight_slot() {
    // One in-flight slot and two sessions: the abandoned request must
    // release both its slots or the follow-up client can never run.
    let config = ServerConfig {
        max_sessions: 2,
        max_inflight: 1,
        ..ServerConfig::default()
    };
    let (addr, handle) = boot(config);

    // Client A: submit real work, read `Accepted`, vanish.
    {
        let stream = TcpStream::connect(addr).unwrap();
        let mut conn = Connection::new(stream);
        let spec = EnsembleSpec::new(500, 4, 3);
        conn.send_request(&RequestEnvelope::new(1, Request::RunEnsemble { spec }))
            .unwrap();
        let accepted = conn.recv_response().unwrap();
        assert_eq!(accepted.response, Response::Accepted);
        // Dropping the connection here leaves the ensemble running
        // server-side with nobody to stream the report to.
    }

    // Client B is served once A's slots come back.
    request_until_served(addr, EnsembleSpec::new(64, 2, 9));

    shutdown(addr);
    let summary = handle.join().unwrap();
    // A's abandoned ensemble still ran to completion (admitted work is
    // never dropped), so both requests count as served.
    assert_eq!(summary.served, 2, "{summary:?}");
}

#[test]
fn disconnect_before_any_frame_cleans_the_session() {
    let config = ServerConfig {
        max_sessions: 2,
        ..ServerConfig::default()
    };
    let (addr, handle) = boot(config);

    // A connects and hangs up without ever speaking.
    drop(TcpStream::connect(addr).unwrap());
    // B connects and hangs up mid-frame (no terminating newline).
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"{\"version\":1,\"id\":9").unwrap();
    }

    // Both half-sessions are reaped: a real client is served even
    // though the cap only admits two sessions at once.
    request_until_served(addr, EnsembleSpec::new(32, 2, 5));

    shutdown(addr);
    let summary = handle.join().unwrap();
    assert_eq!(summary.served, 1, "{summary:?}");
}

#[test]
fn disconnect_without_reading_any_response_is_survivable() {
    let config = ServerConfig {
        max_sessions: 2,
        max_inflight: 1,
        ..ServerConfig::default()
    };
    let (addr, handle) = boot(config);

    // A fires a request and vanishes before reading even `Accepted`:
    // the session discovers the hangup on the first failed write.
    {
        let stream = TcpStream::connect(addr).unwrap();
        let mut conn = Connection::new(stream);
        let spec = EnsembleSpec::new(128, 2, 7);
        conn.send_request(&RequestEnvelope::new(2, Request::RunEnsemble { spec }))
            .unwrap();
    }

    request_until_served(addr, EnsembleSpec::new(64, 2, 11));

    shutdown(addr);
    let summary = handle.join().unwrap();
    // Whether A's request was admitted before the hangup was noticed
    // is a race; what is not negotiable is that B's request completed.
    assert!(
        (1..=2).contains(&summary.served),
        "expected 1 or 2 served, got {summary:?}"
    );
}

#[test]
fn a_client_that_never_reads_cannot_wedge_the_drain() {
    let server = Server::bind(ServerConfig::default(), Box::new(EnsembleOnlyBackend)).unwrap();
    let addr = server.local_addr().unwrap();
    let registry = server.observe().registry;
    // `run` on its own thread, so a wedged drain fails this test by
    // timeout instead of hanging it.
    let (finished, summary) = mpsc::channel();
    std::thread::spawn(move || finished.send(server.run().unwrap()));

    // Pipeline `Metrics` requests and never read a reply. Once both
    // socket buffers hold unread replies, the session blocks writing and
    // stops reading, and this client's own writes stall in turn.
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_write_timeout(Some(Duration::from_millis(500)))
        .unwrap();
    let mut stalled = Connection::new(stream);
    let deadline = Instant::now() + PATIENCE;
    let mut id = 0;
    while stalled
        .send_request(&RequestEnvelope::new(id, Request::Metrics))
        .is_ok()
    {
        id += 1;
        assert!(Instant::now() < deadline, "the session never stalled");
    }

    // The stalled client stays connected while a second one drains.
    shutdown(addr);
    let summary = summary
        .recv_timeout(DRAIN_BOUND)
        .expect("the drain joined the stalled session within the bound");
    assert_eq!(summary.served, 0, "{summary:?}");
    assert_eq!(registry.snapshot().gauge("goc_server_inflight"), Some(0));
    drop(stalled);
}
