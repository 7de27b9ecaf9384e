//! A minimal HTTP/1.1 front end over [`SimServer`].
//!
//! The workspace builds fully offline, so there is no async runtime to
//! lean on; the server is `std::net` with one accept thread and a
//! thread per live connection, which is entirely adequate for its job
//! (tens of tenants steering long-running sims, not a public edge).
//! The accept thread blocks in `accept`: it never polls, so a request
//! is picked up as soon as it connects. At most [`MAX_CONNECTIONS`]
//! connections are served at once; past that the accept thread itself
//! answers 503 and starts nothing. Every response closes the
//! connection; streaming uses `text/event-stream` with close-delimited
//! framing, so `curl -N` and any SSE client work unchanged. Requests
//! are bounded before they are buffered: a request line over 8 KiB
//! gets 414, a longer header line or more than 64 headers 431, and a
//! body over 64 MiB 413.
//!
//! ## Endpoints
//!
//! | Method & path               | Body / response                                   |
//! |-----------------------------|---------------------------------------------------|
//! | `GET  /`                    | service info                                      |
//! | `GET  /sims`                | status of every sim                               |
//! | `POST /sims`                | scenario JSON (see [`crate::scenario`]) → `{id}`  |
//! | `GET  /sims/{id}`           | status document                                   |
//! | `POST /sims/{id}/pause`     | pause on the next slice boundary → status         |
//! | `POST /sims/{id}/resume`    | resume → status                                   |
//! | `POST /sims/{id}/run-to`    | `{"target_us": N}` extends the target → status    |
//! | `GET  /sims/{id}/snapshot`  | `application/octet-stream` snapshot bytes         |
//! | `POST /sims/{id}/fork`      | checkpoint + restore, paused → `{id}`             |
//! | `POST /sims/restore`        | snapshot bytes → new paused sim → `{id}`          |
//! | `GET  /sims/{id}/metrics`   | full `snap-metrics-v1` report                     |
//! | `GET  /sims/{id}/trace?from=N` | trace events from index `N`                    |
//! | `GET  /sims/{id}/uplink`    | gateway uplink frames (see `docs/FLEETS.md`)      |
//! | `GET  /sims/{id}/stream`    | SSE: status on every progress tick, ends when terminal |
//! | `DELETE /sims/{id}`         | stop and forget                                   |

use crate::server::{SimHandle, SimServer};
use snap_telemetry::{parse, Value};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Largest accepted request body (snapshots of big fleets are a few
/// MB; scenarios are tiny).
const MAX_BODY: usize = 64 << 20;

/// Longest accepted request or header line, terminator included.
const MAX_LINE: usize = 8 << 10;

/// Most header lines accepted in one request.
const MAX_HEADERS: usize = 64;

/// Most unread request bytes dropped after a refusal before closing.
const MAX_DRAIN: u64 = 64 << 10;

/// Most connections served at once (SSE streams included). The next
/// one is answered 503 by the accept thread.
pub const MAX_CONNECTIONS: usize = 64;

/// How long the accept loop backs off after a failed `accept` (say,
/// out of file descriptors), so that it does not spin.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// A running HTTP server; dropping it stops the accept loop.
pub struct ServeHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl ServeHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting connections and close the listener. In-flight
    /// requests finish on their own threads.
    ///
    /// The accept thread is blocked in `accept`, so after raising the
    /// stop flag this wakes it with one connection to the server's own
    /// address (loopback when bound to an unspecified one), then joins
    /// it. Should that connection fail, the thread is left blocked
    /// rather than hang the caller.
    pub fn shutdown(&mut self) {
        let Some(t) = self.accept_thread.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        if TcpStream::connect_timeout(&wake, Duration::from_secs(1)).is_ok() {
            let _ = t.join();
        }
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Bind `addr` (e.g. `"127.0.0.1:7878"`, port 0 for ephemeral) and
/// serve `server` until the handle is dropped. Starts one thread, the
/// accept loop; each accepted connection gets a thread of its own.
///
/// # Errors
///
/// Socket bind failures.
pub fn serve(server: Arc<SimServer>, addr: &str) -> std::io::Result<ServeHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let accept_thread = std::thread::Builder::new()
        .name("snap-serve-accept".to_string())
        .spawn(move || {
            // Every connection thread holds a clone, so the strong count
            // less this one is the number of live connections; a thread
            // that panics still gives its slot back.
            let live = Arc::new(());
            for conn in listener.incoming() {
                if stop_flag.load(Ordering::SeqCst) {
                    return;
                }
                match conn {
                    Ok(stream) if Arc::strong_count(&live) > MAX_CONNECTIONS => {
                        refuse_busy(stream);
                    }
                    Ok(stream) => {
                        let (server, slot) = (Arc::clone(&server), Arc::clone(&live));
                        let _ = std::thread::Builder::new()
                            .name("snap-serve-conn".to_string())
                            .spawn(move || {
                                handle_connection(&server, stream);
                                drop(slot);
                            });
                    }
                    Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
                }
            }
        })?;
    Ok(ServeHandle {
        addr,
        stop,
        accept_thread: Some(accept_thread),
    })
}

/// Answer a connection over [`MAX_CONNECTIONS`] with 503, on the accept
/// thread. That thread must not wait on the client, so unlike a refused
/// request it drops only the input that has already arrived.
fn refuse_busy(mut stream: TcpStream) {
    json_error(&mut stream, 503, "too many connections");
    let _ = stream.shutdown(Shutdown::Write);
    if stream.set_nonblocking(true).is_ok() {
        let _ = std::io::copy(&mut (&stream).take(MAX_DRAIN), &mut std::io::sink());
    }
}

struct Request {
    method: String,
    /// Path with the query string split off.
    path: String,
    query: String,
    body: Vec<u8>,
}

/// Why a request was refused before routing: the status and error
/// message the client gets.
type Refusal = (u16, &'static str);

const MALFORMED: Refusal = (400, "malformed request");

/// Read one line of at most [`MAX_LINE`] bytes; a longer one is
/// refused with `too_long`.
fn read_bounded_line(reader: &mut impl BufRead, too_long: Refusal) -> Result<String, Refusal> {
    let mut line = Vec::new();
    reader
        .take(MAX_LINE as u64)
        .read_until(b'\n', &mut line)
        .map_err(|_| MALFORMED)?;
    if line.len() == MAX_LINE && !line.ends_with(b"\n") {
        return Err(too_long);
    }
    String::from_utf8(line).map_err(|_| MALFORMED)
}

fn read_request(stream: &mut TcpStream) -> Result<Request, Refusal> {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|_| MALFORMED)?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|_| MALFORMED)?);
    let line = read_bounded_line(&mut reader, (414, "request line too long"))?;
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or(MALFORMED)?.to_string();
    let target = parts.next().ok_or(MALFORMED)?.to_string();
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target, String::new()),
    };
    let mut content_length = 0usize;
    for headers in 0.. {
        let h = read_bounded_line(&mut reader, (431, "header line too long"))?;
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        if headers == MAX_HEADERS {
            return Err((431, "too many headers"));
        }
        if let Some((k, v)) = h.split_once(':') {
            if k.eq_ignore_ascii_case("content-length") {
                content_length = v.trim().parse().map_err(|_| MALFORMED)?;
            }
        }
    }
    if content_length > MAX_BODY {
        return Err((413, "request body too large"));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|_| MALFORMED)?;
    Ok(Request {
        method,
        path,
        query,
        body,
    })
}

fn write_response(stream: &mut TcpStream, status: u16, content_type: &str, body: &[u8]) {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Content Too Large",
        414 => "URI Too Long",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body);
    let _ = stream.flush();
}

fn json_ok(stream: &mut TcpStream, v: &Value) {
    write_response(stream, 200, "application/json", v.to_pretty().as_bytes());
}

fn json_error(stream: &mut TcpStream, status: u16, message: &str) {
    let mut v = Value::obj();
    v.set("error", Value::Str(message.to_string()));
    write_response(stream, status, "application/json", v.to_pretty().as_bytes());
}

fn id_json(id: u64) -> Value {
    let mut v = Value::obj();
    v.set("id", Value::Int(id as i64));
    v
}

fn query_param(query: &str, key: &str) -> Option<String> {
    query
        .split('&')
        .filter_map(|kv| kv.split_once('='))
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v.to_string())
}

/// `GET /sims/{id}/stream`: one SSE `data:` line per progress tick
/// (slice completed, state change), final line at a terminal state,
/// then close. On a paused sim the stream idles, re-sending the
/// current status as a heartbeat every few seconds.
fn stream_sse(stream: &mut TcpStream, h: &Arc<SimHandle>) {
    let head = "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n\
                Cache-Control: no-cache\r\nConnection: close\r\n\r\n";
    if stream.write_all(head.as_bytes()).is_err() {
        return;
    }
    let mut last_seq = u64::MAX;
    loop {
        let (v, seq, terminal) = h.wait_progress(last_seq, Duration::from_secs(3));
        last_seq = seq;
        let event = format!("data: {}\n\n", v.to_compact());
        if stream.write_all(event.as_bytes()).is_err() || stream.flush().is_err() {
            return;
        }
        if terminal {
            return;
        }
    }
}

fn handle_connection(server: &Arc<SimServer>, mut stream: TcpStream) {
    match read_request(&mut stream) {
        Ok(req) => route(server, &mut stream, &req),
        Err((status, message)) => {
            json_error(&mut stream, status, message);
            // Closing a socket with unread input resets the connection,
            // which can discard the reply before the client reads it:
            // half-close, then drop what the client already sent.
            let _ = stream.shutdown(Shutdown::Write);
            let _ = stream.set_read_timeout(Some(Duration::from_secs(1)));
            let _ = std::io::copy(&mut (&stream).take(MAX_DRAIN), &mut std::io::sink());
        }
    }
}

fn route(server: &Arc<SimServer>, stream: &mut TcpStream, req: &Request) {
    let segs: Vec<&str> = req
        .path
        .trim_matches('/')
        .split('/')
        .filter(|s| !s.is_empty())
        .collect();
    match (req.method.as_str(), segs.as_slice()) {
        ("GET", []) => {
            let mut v = Value::obj();
            v.set("service", Value::Str("snap-serve".to_string())).set(
                "snapshot_format_version",
                Value::Int(i64::from(snap_snapshot::FORMAT_VERSION)),
            );
            json_ok(stream, &v);
        }
        ("GET", ["sims"]) => json_ok(stream, &server.list_json()),
        ("POST", ["sims"]) => {
            let text = String::from_utf8_lossy(&req.body);
            match crate::scenario::parse_scenario(&text) {
                Ok(s) => {
                    // Strict-lint preflight: a custom image with gating
                    // findings is refused with the structured body.
                    if let Err(body) = crate::scenario::lint_preflight(&s) {
                        write_response(
                            stream,
                            400,
                            "application/json",
                            body.to_pretty().as_bytes(),
                        );
                        return;
                    }
                    match server.submit(&s) {
                        Ok(id) => json_ok(stream, &id_json(id)),
                        Err(e) => json_error(stream, 400, &e),
                    }
                }
                Err(e) => json_error(stream, 400, &e),
            }
        }
        ("POST", ["sims", "restore"]) => match server.restore(&req.body) {
            Ok(id) => json_ok(stream, &id_json(id)),
            Err(e) => json_error(stream, 400, &e),
        },
        (_, ["sims", id, rest @ ..]) => {
            let Ok(id) = id.parse::<u64>() else {
                json_error(stream, 404, "bad sim id");
                return;
            };
            let Some(h) = server.get(id) else {
                json_error(stream, 404, "no such sim");
                return;
            };
            match (req.method.as_str(), rest) {
                ("GET", []) => json_ok(stream, &h.status_json()),
                ("DELETE", []) => {
                    server.remove(id);
                    json_ok(stream, &id_json(id));
                }
                ("POST", ["pause"]) => {
                    h.pause();
                    json_ok(stream, &h.status_json());
                }
                ("POST", ["resume"]) => {
                    h.resume();
                    json_ok(stream, &h.status_json());
                }
                ("POST", ["run-to"]) => {
                    let text = String::from_utf8_lossy(&req.body);
                    let target = parse(&text)
                        .ok()
                        .and_then(|v| v.get("target_us").and_then(Value::as_i64));
                    match target {
                        Some(us) if us >= 0 => {
                            h.run_to(us as u64);
                            json_ok(stream, &h.status_json());
                        }
                        _ => json_error(stream, 400, "expected {\"target_us\": N}"),
                    }
                }
                ("GET", ["snapshot"]) => {
                    let bytes = h.snapshot_bytes();
                    write_response(stream, 200, "application/octet-stream", &bytes);
                }
                ("POST", ["fork"]) => match server.fork(id) {
                    Ok(child) => json_ok(stream, &id_json(child)),
                    Err(e) => json_error(stream, 400, &e),
                },
                ("GET", ["metrics"]) => json_ok(stream, &h.metrics_json()),
                ("GET", ["uplink"]) => json_ok(stream, &h.uplink_json()),
                ("GET", ["trace"]) => {
                    let from = query_param(&req.query, "from")
                        .and_then(|s| s.parse().ok())
                        .unwrap_or(0usize);
                    json_ok(stream, &h.trace_json(from));
                }
                ("GET", ["stream"]) => stream_sse(stream, &h),
                _ => json_error(stream, 404, "unknown endpoint"),
            }
        }
        _ => json_error(stream, 404, "unknown endpoint"),
    }
}
