//! The timed run: boot a `goc_server::Server` in process, drive the
//! workload's closed loops over loopback TCP, and check every report.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Mutex;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use goc_analysis::ensemble::{self, EnsembleReport, EnsembleSpec};
use goc_proto::{Client, ReportPayload, Request, Response};
use goc_server::{EnsembleOnlyBackend, Server, ServerConfig, ServerError, ServerSummary};

use crate::measure::{self, Metrics};
use crate::workload::{Requests, Workload};

/// Completed requests the window needs so that at least ten lie beyond
/// the p90. Clients keep issuing past `--seconds` only until it has
/// this many, or until [`WINDOW_LIMIT`] times `--seconds`.
const MIN_SAMPLES: usize = 100;
/// The window ends at this multiple of `--seconds` even when it is short
/// of [`MIN_SAMPLES`]; the p90 check then fails the run.
const WINDOW_LIMIT: f64 = 3.0;
/// Failed requests after which the clients stop issuing: the run has
/// failed already, and a broken server should not hold it up.
const MAX_FAILURES: u64 = 32;
/// Pause after a reconnect fails, so a dead server is not polled in a
/// tight loop.
const RECONNECT_PAUSE: Duration = Duration::from_millis(100);
/// Gap between two scrapes of the `wire-1k` scraper.
const SCRAPE_EVERY: Duration = Duration::from_millis(100);

/// The server configuration every workload shares: the defaults, with a
/// fixed worker count (so numbers compare across machines) and a
/// session budget no run can spend.
fn server_config() -> ServerConfig {
    ServerConfig {
        threads: 2,
        session_budget: u64::MAX,
        ..ServerConfig::default()
    }
}

/// A booted server and the connections a workload holds on it.
pub struct Live {
    pub addr: SocketAddr,
    handle: JoinHandle<Result<ServerSummary, ServerError>>,
    pub clients: Vec<Client>,
    pub scraper: Option<Client>,
}

impl Live {
    pub fn boot(workload: Workload) -> Result<Live, String> {
        let server = Server::bind(server_config(), Box::new(EnsembleOnlyBackend))
            .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let handle = thread::spawn(move || server.run());
        let connect = || Client::connect(addr).map_err(|e| format!("connect: {e}"));
        let clients = (0..workload.clients())
            .map(|_| connect())
            .collect::<Result<_, _>>()?;
        let scraper = workload.scrapes().then(connect).transpose()?;
        Ok(Live {
            addr,
            handle,
            clients,
            scraper,
        })
    }

    /// Closes the connections, drains the server and returns its
    /// lifetime counters.
    pub fn shutdown(self) -> Result<ServerSummary, String> {
        drop(self.clients);
        drop(self.scraper);
        let mut client = Client::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        let reply = client
            .request(Request::Shutdown)
            .map_err(|e| format!("shutdown: {e}"))?;
        if !matches!(
            reply.terminal(),
            Response::Report(ReportPayload::ShutdownAck)
        ) {
            return Err(format!("shutdown refused: {:?}", reply.terminal()));
        }
        drop(client);
        self.handle
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("server: {e}"))
    }
}

/// Sends one ensemble request and returns its report, or why there is
/// none (a rejection, an error frame, or a transport failure).
pub fn exchange(client: &mut Client, spec: &EnsembleSpec) -> Result<EnsembleReport, String> {
    let mut reply = client
        .request(Request::RunEnsemble { spec: spec.clone() })
        .map_err(|e| format!("transport: {e}"))?;
    match reply.frames.pop().map(|f| f.response) {
        Some(Response::Report(ReportPayload::Ensemble(report))) => Ok(report),
        other => Err(format!("no ensemble report: {other:?}")),
    }
}

/// The checks every served report must pass: it echoes its spec and
/// every replica converged.
pub fn check_report(spec: &EnsembleSpec, report: &EnsembleReport) -> Result<(), String> {
    if report.spec != *spec {
        return Err(format!("report for `{}` does not echo its spec", spec.name));
    }
    let agg = &report.aggregate;
    if agg.replicas != spec.replicas || agg.converged != spec.replicas {
        return Err(format!(
            "`{}` seed {}: {} of {} replicas converged (report says {} replicas)",
            spec.name, spec.seed, agg.converged, spec.replicas, agg.replicas
        ));
    }
    Ok(())
}

/// One Metrics round trip: the exposition's byte length.
pub fn scrape(client: &mut Client) -> Result<usize, String> {
    let reply = client
        .request(Request::Metrics)
        .map_err(|e| format!("scrape transport: {e}"))?;
    match reply.report() {
        Some(ReportPayload::Metrics { text, .. }) if text.contains("goc_server_served_total") => {
            Ok(text.len())
        }
        _ => Err(format!("scrape answered {:?}", reply.terminal())),
    }
}

/// When a closed loop stops issuing requests.
#[derive(Clone, Copy)]
enum Until {
    /// After this many requests (the warm-up batch).
    Count(u64),
    /// After `seconds`, once at least [`MIN_SAMPLES`] completed, and
    /// after [`WINDOW_LIMIT`] × `seconds` in any case.
    Window { seconds: f64 },
}

/// A completed request, timed from writing its frame to reading its
/// terminal report.
struct Sample {
    done: Duration,
    latency: Duration,
    replicas: usize,
}

#[derive(Default)]
struct Tally {
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
    reports: u64,
    problems: Vec<String>,
    /// Checked requests' specs and their served deterministic JSON.
    kept: Vec<(EnsembleSpec, String)>,
}

impl Tally {
    /// A request failed.
    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.flaw(why);
    }

    /// A check of the whole run failed; no single request is to blame.
    fn flaw(&mut self, why: String) {
        if self.problems.len() < 8 {
            self.problems.push(why);
        }
    }

    fn merge(&mut self, other: Tally) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.reports += other.reports;
        self.kept.extend(other.kept);
        for p in other.problems {
            if self.problems.len() < 8 {
                self.problems.push(p);
            }
        }
    }
}

/// Drives every client of `live` in a closed loop over one request
/// stream (shared, so requests go out in stream order), with the
/// scraper alongside where the workload has one.
fn drive(
    live: &mut Live,
    spec_at: &(dyn Fn(u64) -> EnsembleSpec + Sync),
    keep: &(dyn Fn(u64) -> bool + Sync),
    until: Until,
) -> Tally {
    let next = AtomicU64::new(0);
    let completed = AtomicU64::new(0);
    let failures = AtomicU64::new(0);
    // Dropping the sender stops the scraper at once, mid-pause.
    let (stop, stopped) = mpsc::channel::<()>();
    let total = Mutex::new(Tally::default());
    let addr = live.addr;
    let start = Instant::now();
    thread::scope(|scope| {
        let clients: Vec<_> = live
            .clients
            .iter_mut()
            .map(|client| {
                let (next, completed, failures, total) = (&next, &completed, &failures, &total);
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    loop {
                        let stop = match until {
                            Until::Count(n) => next.load(Ordering::SeqCst) >= n,
                            Until::Window { seconds } => {
                                let elapsed = start.elapsed().as_secs_f64();
                                elapsed >= seconds
                                    && (completed.load(Ordering::SeqCst) >= MIN_SAMPLES as u64
                                        || elapsed >= WINDOW_LIMIT * seconds)
                            }
                        };
                        if stop || failures.load(Ordering::SeqCst) >= MAX_FAILURES {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if matches!(until, Until::Count(n) if i >= n) {
                            break;
                        }
                        let spec = spec_at(i);
                        tally.attempted += 1;
                        let sent = Instant::now();
                        let result = exchange(client, &spec);
                        let latency = sent.elapsed();
                        let report = match result {
                            Ok(report) => report,
                            Err(why) => {
                                tally.fail(why);
                                failures.fetch_add(1, Ordering::SeqCst);
                                match Client::connect(addr) {
                                    Ok(fresh) => *client = fresh,
                                    Err(_) => thread::sleep(RECONNECT_PAUSE),
                                }
                                continue;
                            }
                        };
                        tally.reports += 1;
                        if let Err(why) = check_report(&spec, &report) {
                            tally.fail(why);
                            failures.fetch_add(1, Ordering::SeqCst);
                            continue;
                        }
                        completed.fetch_add(1, Ordering::SeqCst);
                        if keep(i) {
                            tally.kept.push((spec, report.deterministic_json()));
                        }
                        tally.samples.push(Sample {
                            done: start.elapsed(),
                            latency,
                            replicas: report.aggregate.replicas,
                        });
                    }
                    total.lock().expect("a client thread panicked").merge(tally);
                })
            })
            .collect();
        if let Some(scraper) = live.scraper.as_mut() {
            let total = &total;
            scope.spawn(move || {
                let mut tally = Tally::default();
                loop {
                    tally.attempted += 1;
                    if let Err(why) = scrape(scraper) {
                        tally.fail(why);
                    }
                    if stopped.recv_timeout(SCRAPE_EVERY) != Err(RecvTimeoutError::Timeout) {
                        break;
                    }
                }
                total.lock().expect("a client thread panicked").merge(tally);
            });
        }
        for client in clients {
            client.join().expect("client threads do not panic");
        }
        drop(stop);
    });
    total.into_inner().expect("no thread panicked")
}

/// Runs a workload's timed measurement and returns the result line.
pub fn run(workload: Workload, seed: u64, seconds: f64) -> Result<(bool, String), String> {
    let requests = Requests::new(workload, seed);
    let warmup = |j: u64| requests.warmup(j);
    let timed = |i: u64| requests.timed(i);
    let checked = |i: u64| requests.checked(i);
    // Set-up: bind, connect, then the fixed warm-up batch.
    let clock = Instant::now();
    let mut live = Live::boot(workload)?;
    let mut tally = drive(
        &mut live,
        &warmup,
        &|_| false,
        Until::Count(workload.warmup_requests()),
    );
    let setup_s = clock.elapsed().as_secs_f64();

    let steal_before = measure::cpu_steal();
    let mut window = drive(&mut live, &timed, &checked, Until::Window { seconds });
    let steal = measure::steal_share(steal_before, measure::cpu_steal());
    let peak_rss_mb = measure::peak_rss_mb()?;

    // Every request issued before the deadline counts; the window ends
    // at the last of their completions.
    let end = window
        .samples
        .iter()
        .map(|s| s.done)
        .max()
        .unwrap_or_default();
    let latencies: Vec<f64> = window
        .samples
        .iter()
        .map(|s| s.latency.as_secs_f64() * 1e3)
        .collect();
    let replicas: usize = window.samples.iter().map(|s| s.replicas).sum();
    let kept = std::mem::take(&mut window.kept);
    tally.merge(window);

    check_ledger(live.shutdown(), tally.reports, &mut tally);

    // Served reports must be byte-identical to local runs of their spec.
    for (spec, served_json) in &kept {
        match ensemble::run(spec, 2) {
            Ok(local) if local.deterministic_json() == *served_json => {}
            Ok(_) => tally.fail(format!(
                "served `{}` seed {} differs from the local run",
                spec.name, spec.seed
            )),
            Err(e) => tally.fail(format!("local run of `{}`: {e}", spec.name)),
        }
    }
    let tail = measure::beyond(&latencies, 0.9);
    if tail < 10 {
        tally.flaw(format!(
            "only {tail} samples lie beyond the p90 ({} in the window)",
            latencies.len()
        ));
    }

    let mut metrics = Metrics::default();
    metrics.push("latency_p50_ms", measure::median(&latencies), "ms");
    metrics.push("latency_p90_ms", measure::quantile(&latencies, 0.9), "ms");
    metrics.push("replicas_per_s", replicas as f64 / end.as_secs_f64(), "1/s");
    metrics.push("setup_s", setup_s, "s");
    metrics.push("peak_rss_mb", peak_rss_mb, "MiB");

    // Every failure leaves a problem, so the run is correct when none did.
    let correct = tally.problems.is_empty();
    eprintln!(
        "perfbench: {{\"samples\": {}, \"beyond_p90\": {tail}, \"window_s\": {:.3}, \
         \"checked\": {}, \"steal_share\": {}, \"problems\": {}}}",
        latencies.len(),
        end.as_secs_f64(),
        kept.len(),
        steal.map_or("null".to_string(), |s| format!("{s:.5}")),
        serde_json::to_string(&tally.problems).expect("strings serialize"),
    );
    Ok((
        correct,
        metrics.result_line(correct, tally.attempted, tally.failed),
    ))
}

/// The server must drain cleanly, and its own ledger must agree with
/// what the clients saw: every report received was counted as served,
/// and nothing was refused.
fn check_ledger(drained: Result<ServerSummary, String>, reports: u64, tally: &mut Tally) {
    match drained {
        Ok(summary) if summary.served == reports && summary.rejected == 0 => {}
        Ok(summary) => tally.flaw(format!(
            "server ledger {summary:?} disagrees with {reports} reports received"
        )),
        Err(why) => tally.flaw(why),
    }
}
