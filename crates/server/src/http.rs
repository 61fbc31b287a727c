//! [`HttpExporter`]: the minimal HTTP/1.1 GET scrape endpoint.
//!
//! The wire protocol (`goc-proto`) is the service's front door, but
//! scrapers and humans speak HTTP — ROADMAP item 6 names "a scrape
//! endpoint (HTTP GET)" as the missing piece. This is that piece, on
//! `std::net` only, serving exactly three read-only paths off the
//! server's observability state:
//!
//! * `GET /metrics` — the Prometheus text exposition
//!   ([`goc_telemetry::MetricsSnapshot::render_text`]) of the server's
//!   registry;
//! * `GET /healthz` — `200 ok` while the exporter is up (liveness);
//! * `GET /trace` — the flight recorder's current window as Chrome
//!   Trace Event Format JSON
//!   ([`goc_telemetry::TraceSnapshot::to_chrome_json`]).
//!
//! One request per connection (`Connection: close`), bounded buffered
//! header reads, a whole-head read deadline and a whole-response write
//! deadline,
//! unknown paths 404, non-GET methods 405. Deliberately not a web
//! framework: three routes, a handful of lines each, no keep-alive, no
//! TLS — scrape traffic on a trusted network.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use goc_telemetry::Observe;

use crate::server::ServerError;

/// Cap on the request head (request line + headers) we are willing to
/// read before answering; anything longer is cut off (the three served
/// requests fit in well under a hundred bytes).
const MAX_HEAD_BYTES: usize = 8 * 1024;

/// How long the whole request head may take to arrive, and how long the
/// whole response may take to write, before the exporter drops that
/// connection: a stalled or dribbling scraper costs a bounded wait, not
/// liveness.
const SCRAPE_TIMEOUT: Duration = Duration::from_secs(2);

/// The scrape endpoint: binds its own listener (separate from the wire
/// protocol's) and serves `/metrics`, `/healthz`, and `/trace` off
/// a shared handle onto the server's registry and flight recorder.
pub struct HttpExporter {
    listener: TcpListener,
    observe: Observe,
}

impl HttpExporter {
    /// Binds the endpoint on `addr` (port 0 picks an ephemeral port —
    /// read it back with [`HttpExporter::local_addr`]). `observe` is
    /// the live server handle ([`crate::Server::observe`]), so scrapes
    /// always see current state.
    ///
    /// # Errors
    ///
    /// [`ServerError::Bind`] when the OS refuses the address.
    pub fn bind(addr: &str, observe: Observe) -> Result<HttpExporter, ServerError> {
        let listener = TcpListener::bind(addr).map_err(|e| ServerError::Bind {
            addr: addr.to_string(),
            detail: e.to_string(),
        })?;
        Ok(HttpExporter { listener, observe })
    }

    /// The bound address (the real port when `addr` asked for 0).
    ///
    /// # Errors
    ///
    /// [`ServerError::Io`] when the OS cannot report it.
    pub fn local_addr(&self) -> Result<SocketAddr, ServerError> {
        self.listener
            .local_addr()
            .map_err(|e| ServerError::Io(e.to_string()))
    }

    /// Moves the exporter onto its own accept-loop thread, serving one
    /// request per connection until the process exits. Scrapes are
    /// answered sequentially — a metrics endpoint has no business
    /// needing a thread pool.
    pub fn spawn(self) -> JoinHandle<()> {
        thread::spawn(move || {
            for incoming in self.listener.incoming() {
                let Ok(stream) = incoming else { continue };
                serve_one(stream, &self.observe);
            }
        })
    }
}

/// A scrape socket read that fails once `deadline` passes. The socket's
/// read timeout is re-armed to the time left before every read, so a
/// peer that dribbles bytes cannot stretch the total past the deadline
/// (the read-side twin of [`write_by`]).
struct ReadBy<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl Read for ReadBy<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

/// Reads the request head (line by line through a buffer, up to the
/// blank line, bounded in size and by [`SCRAPE_TIMEOUT`] in total) and
/// returns `(method, path)` from its request line.
fn read_request_line(stream: &TcpStream) -> Option<(String, String)> {
    let deadline = Instant::now() + SCRAPE_TIMEOUT;
    let mut reader = BufReader::new(ReadBy { stream, deadline }.take(MAX_HEAD_BYTES as u64));
    let mut head = Vec::with_capacity(256);
    loop {
        let start = head.len();
        match reader.read_until(b'\n', &mut head) {
            Ok(0) | Err(_) => break,
            Ok(_) if matches!(&head[start..], b"\r\n" | b"\n") => break,
            Ok(_) => {}
        }
    }
    let text = String::from_utf8_lossy(&head);
    let request_line = text.lines().next()?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next()?.to_string();
    // Ignore any query string: `/metrics?x=1` scrapes `/metrics`.
    let path = parts.next()?.split('?').next()?.to_string();
    Some((method, path))
}

/// Writes `bytes` unless `deadline` passes first. The socket's write
/// timeout is re-armed to the time left before every write, so a peer
/// that drains slowly cannot stretch the total past the deadline.
fn write_by(stream: &mut TcpStream, mut bytes: &[u8], deadline: Instant) -> io::Result<()> {
    while !bytes.is_empty() {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        stream.set_write_timeout(Some(left))?;
        match stream.write(bytes) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Writes one `HTTP/1.1` response within [`SCRAPE_TIMEOUT`] and closes
/// (errors ignored: the scraper may already be gone, or too slow).
fn respond(stream: &mut TcpStream, status: &str, content_type: &str, body: &str) {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let deadline = Instant::now() + SCRAPE_TIMEOUT;
    let _ = write_by(stream, head.as_bytes(), deadline)
        .and_then(|()| write_by(stream, body.as_bytes(), deadline));
}

/// Answers a single scrape connection.
fn serve_one(mut stream: TcpStream, observe: &Observe) {
    let Some((method, path)) = read_request_line(&stream) else {
        respond(
            &mut stream,
            "400 Bad Request",
            "text/plain",
            "bad request\n",
        );
        return;
    };
    if method != "GET" {
        respond(
            &mut stream,
            "405 Method Not Allowed",
            "text/plain",
            "only GET is served\n",
        );
        return;
    }
    match path.as_str() {
        "/metrics" => respond(
            &mut stream,
            "200 OK",
            "text/plain; version=0.0.4",
            &observe.registry.render_text(),
        ),
        "/healthz" => respond(&mut stream, "200 OK", "text/plain", "ok\n"),
        "/trace" => respond(
            &mut stream,
            "200 OK",
            "application/json",
            &observe.tracer.snapshot().to_chrome_json(),
        ),
        _ => respond(
            &mut stream,
            "404 Not Found",
            "text/plain",
            "known paths: /metrics /healthz /trace\n",
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use goc_telemetry::trace::{TraceEventKind, TraceRecorder};
    use goc_telemetry::Registry;

    fn get(addr: SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    fn boot(tracer: TraceRecorder) -> (SocketAddr, Registry, TraceRecorder) {
        let observe = Observe {
            registry: Registry::new(),
            tracer,
        };
        let exporter = HttpExporter::bind("127.0.0.1:0", observe.clone()).unwrap();
        let addr = exporter.local_addr().unwrap();
        exporter.spawn();
        (addr, observe.registry, observe.tracer)
    }

    #[test]
    fn scrapes_serve_metrics_health_and_trace() {
        let (addr, registry, tracer) = boot(TraceRecorder::new(64));
        registry.counter("goc_http_test_total").add(3);
        tracer.lane().instant(TraceEventKind::RequestAdmit, 9);

        let health = get(addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(health.starts_with("HTTP/1.1 200 OK\r\n"), "{health}");
        assert!(health.contains("Connection: close"));
        assert!(health.ends_with("ok\n"));

        let metrics = get(addr, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(metrics.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(metrics.contains("Content-Type: text/plain"));
        assert!(metrics.contains("goc_http_test_total 3\n"));

        // Scrapes see *live* state: the counter moves between GETs.
        registry.counter("goc_http_test_total").inc();
        let again = get(addr, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(again.contains("goc_http_test_total 4\n"));

        let trace = get(addr, "GET /trace?since=0 HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(trace.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(trace.contains("Content-Type: application/json"));
        assert!(trace.contains("\"request_admit\""));
        assert!(trace.contains("\"correlation\":9"));
    }

    #[test]
    fn unknown_paths_and_methods_are_refused_by_status() {
        let (addr, _registry, _tracer) = boot(TraceRecorder::new(64));
        let missing = get(addr, "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(missing.starts_with("HTTP/1.1 404 Not Found\r\n"));
        let posted = get(addr, "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(posted.starts_with("HTTP/1.1 405 Method Not Allowed\r\n"));
        // Each response carries an exact Content-Length and closes.
        for response in [missing, posted] {
            let length: usize = response
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .unwrap()
                .parse()
                .unwrap();
            let body = response.split("\r\n\r\n").nth(1).unwrap();
            assert_eq!(body.len(), length);
        }
    }

    /// A seeded garbage request head: fragments of real heads (methods,
    /// paths, versions, line ends) interleaved with random bytes, up to
    /// ~1.5 KiB, all within [`MAX_HEAD_BYTES`].
    fn garbage_head(seed: u64) -> Vec<u8> {
        const FRAGMENTS: [&[u8]; 10] = [
            b"GET ",
            b"POST ",
            b"/healthz",
            b"/metrics?",
            b"/trace",
            b" HTTP/1.1",
            b"\r\n",
            b"\n",
            b"\r\n\r\n",
            b" ",
        ];
        // SplitMix64: the fuzzer's only randomness, fixed by `seed`.
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let pieces = next() % 48;
        let mut head = Vec::new();
        for _ in 0..pieces {
            let draw = next();
            if draw % 3 == 0 {
                head.extend_from_slice(FRAGMENTS[(draw >> 8) as usize % FRAGMENTS.len()]);
            } else {
                let len = (draw >> 8) % 32;
                head.extend((0..len).map(|_| next() as u8));
            }
        }
        head
    }

    #[test]
    fn garbage_heads_get_a_status_line_or_nothing_and_leave_the_endpoint_up() {
        let (addr, _registry, _tracer) = boot(TraceRecorder::new(64));
        let bound = SCRAPE_TIMEOUT + Duration::from_secs(1);
        for seed in 0..64 {
            let head = garbage_head(seed);
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.set_read_timeout(Some(bound)).unwrap();
            let clock = Instant::now();
            stream.write_all(&head).unwrap();
            stream.shutdown(std::net::Shutdown::Write).unwrap();
            // Read to EOF; a reset after the reply (the exporter closing
            // on head bytes it never read) ends the reply too.
            let mut reply = Vec::new();
            let mut chunk = [0u8; 4096];
            loop {
                match stream.read(&mut chunk) {
                    Ok(0) => break,
                    Ok(n) => reply.extend_from_slice(&chunk[..n]),
                    Err(e) if e.kind() == io::ErrorKind::ConnectionReset => break,
                    Err(e) => panic!("seed {seed}: no reply within {bound:?}: {e}"),
                }
            }
            assert!(
                clock.elapsed() < bound,
                "seed {seed}: reply took {:?}",
                clock.elapsed()
            );
            assert!(
                reply.is_empty() || reply.starts_with(b"HTTP/1.1 "),
                "seed {seed}: head {:?} got {:?}",
                String::from_utf8_lossy(&head),
                String::from_utf8_lossy(&reply)
            );
        }
        let health = get(addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(health.starts_with("HTTP/1.1 200 OK\r\n"), "{health}");
    }

    #[test]
    fn a_trace_scraper_that_never_reads_cannot_wedge_the_endpoint() {
        // A ring whose Chrome dump (~29 MB) dwarfs the loopback socket
        // buffers, so the exporter's write to a non-reading client
        // blocks until the write timeout cuts it off.
        let tracer = TraceRecorder::new(1 << 18);
        let lane = tracer.lane();
        for i in 0..(1u64 << 18) {
            lane.instant(TraceEventKind::ReplicaStart, i);
        }
        let (addr, _registry, _tracer) = boot(tracer);
        let mut stalled = TcpStream::connect(addr).unwrap();
        stalled
            .write_all(b"GET /trace HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let clock = Instant::now();
        let mut health = TcpStream::connect(addr).unwrap();
        health.set_read_timeout(Some(3 * SCRAPE_TIMEOUT)).unwrap();
        health
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        health
            .read_to_string(&mut response)
            .expect("/healthz answers while a /trace scraper stalls");
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
        assert!(
            clock.elapsed() < 3 * SCRAPE_TIMEOUT,
            "/healthz took {:?}",
            clock.elapsed()
        );
        drop(stalled);
    }

    #[test]
    fn a_scraper_that_dribbles_its_head_cannot_wedge_the_endpoint() {
        // One head byte every 200 ms, never the blank line: each read
        // returns well inside any per-read timeout, so only a deadline
        // on the whole head frees the sequential exporter.
        let (addr, _registry, _tracer) = boot(TraceRecorder::new(64));
        let mut slow = TcpStream::connect(addr).unwrap();
        // Detached: it stops once the exporter drops the connection (or
        // after 64 bytes, ~13 s, should the exporter never let go).
        thread::spawn(move || {
            let head = b"GET /healthz HTTP/1.1\r\nX-Dribble: ";
            for byte in head.iter().chain(std::iter::repeat(&b'a')).take(64) {
                if slow.write_all(&[*byte]).is_err() {
                    break;
                }
                thread::sleep(Duration::from_millis(200));
            }
        });
        // Let the exporter accept the dribbler first.
        thread::sleep(Duration::from_millis(300));
        let clock = Instant::now();
        let mut health = TcpStream::connect(addr).unwrap();
        health.set_read_timeout(Some(3 * SCRAPE_TIMEOUT)).unwrap();
        health
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        health
            .read_to_string(&mut response)
            .expect("/healthz answers while a scraper dribbles its head");
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
        assert!(
            clock.elapsed() < 3 * SCRAPE_TIMEOUT,
            "/healthz took {:?}",
            clock.elapsed()
        );
    }
}
