//! The HTTP front end fails closed, proven by mutation.
//!
//! Starting from the valid requests and scenario bodies of `smoke.rs`,
//! each case applies one to three seeded byte mutations (set, flip,
//! insert, delete, truncate), each aimed at the request line, the
//! headers or the body, and sends the result over loopback TCP. Every
//! reply must be a complete response: a status line with a status the
//! server sends (200, 400, 404, 405, 413, 414, 431, 503) and a body as
//! long as its `Content-Length`. A panic on a connection thread shows
//! as a reply with no status line, an abort ends the test process, and
//! a hang trips the client's read timeout. After the sweep, `GET /`
//! still answers 200.
//!
//! Every sim a mutant creates (submit, fork, restore) is deleted right
//! away, so a sim restored from mutated snapshot bytes never runs. The
//! sims the requests address is one base sim; when a mutant deletes it
//! a new one takes its place, and when one resumes it, it is paused
//! again.
//!
//! The sweep is seeded and deterministic. On a failure it shrinks the
//! request by greedily dropping byte ranges while the failure persists,
//! then prints the case's seed and the escaped request.

use dess::SplitMix64;
use snap_telemetry::{parse, Value};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEED: u64 = 0x4854_5450_6d75_7401;
const CASES: u64 = 4_000;
/// Every status the server answers with.
const STATUSES: [u16; 8] = [200, 400, 404, 405, 413, 414, 431, 503];
/// Longer than the server's own 10 s request read timeout.
const READ_TIMEOUT: Duration = Duration::from_secs(30);
/// Wall time the shrinker may spend on one failure.
const SHRINK_BUDGET: Duration = Duration::from_secs(60);

/// The base sim's scenario: the smoke test's MAC fleet.
const SCENARIO: &str = r#"{
    "name": "smoke",
    "mac_nodes": 3,
    "loss": 0.15,
    "loss_seed": 42,
    "engine": "fused",
    "scheduler": "event",
    "stagger_us": 700,
    "run_to_us": 12000,
    "slice_us": 300
}"#;

/// A custom image that passes the strict-lint preflight.
const CLEAN_ASM: &str = r#"{"mac_nodes": 0, "asm": "boot:\n done\n", "run_to_us": 1000}"#;

/// A custom image the preflight refuses: each timer activation posts
/// three copies of its own event.
const FLOODING_ASM: &str = "{\"mac_nodes\": 0, \"asm\": \"boot:\\n li r1, 0\\n li r2, h\\n \
    setaddr r1, r2\\n li r3, 1\\n schedlo r1, r3\\n done\\nh:\\n li r4, 0\\n swev r4\\n \
    swev r4\\n swev r4\\n done\\n\", \"run_to_us\": 1000}";

/// Bytes a mutation inserts or sets half of the time: the characters
/// HTTP and JSON framing turn on.
const SYNTAX: &[u8] = b"\r\n :/?&={}[]\",.-+0123456789eE\0\x7f\xff";

/// A valid request, kept in its three parts so that mutations can aim
/// at each.
struct Request {
    line: String,
    headers: String,
    body: Vec<u8>,
}

impl Request {
    fn new(method: &str, path: &str, body: &[u8]) -> Request {
        Request {
            line: format!("{method} {path} HTTP/1.1\r\n"),
            headers: format!("Host: test\r\nContent-Length: {}\r\n\r\n", body.len()),
            body: body.to_vec(),
        }
    }

    fn bytes(&self) -> Vec<u8> {
        [self.line.as_bytes(), self.headers.as_bytes(), &self.body].concat()
    }

    /// The byte ranges of the request line, the headers and the body.
    fn parts(&self) -> [(usize, usize); 3] {
        let head = self.line.len() + self.headers.len();
        [
            (0, self.line.len()),
            (self.line.len(), head),
            (head, head + self.body.len()),
        ]
    }
}

/// The seed requests, addressed at sim `base`.
fn seeds(base: u64, snapshot: &[u8]) -> Vec<Request> {
    let sim = |rest: &str| format!("/sims/{base}{rest}");
    vec![
        Request::new("GET", "/", b""),
        Request::new("GET", "/sims", b""),
        Request::new("POST", "/sims", SCENARIO.as_bytes()),
        Request::new("POST", "/sims", CLEAN_ASM.as_bytes()),
        Request::new("POST", "/sims", FLOODING_ASM.as_bytes()),
        Request::new("GET", &sim(""), b""),
        Request::new("POST", &sim("/pause"), b""),
        Request::new("POST", &sim("/resume"), b""),
        Request::new("POST", &sim("/run-to"), br#"{"target_us": 12000}"#),
        Request::new("GET", &sim("/snapshot"), b""),
        Request::new("POST", &sim("/fork"), b""),
        Request::new("POST", "/sims/restore", snapshot),
        Request::new("GET", &sim("/metrics"), b""),
        Request::new("GET", &sim("/trace?from=0"), b""),
        Request::new("GET", &sim("/uplink"), b""),
        Request::new("DELETE", &sim(""), b""),
        Request::new("GET", "/sims/999999", b""),
    ]
}

/// `seed`'s bytes with one to three mutations, each at a position in
/// a part of the request chosen first.
fn mutate(seed: &Request, rng: &mut SplitMix64) -> Vec<u8> {
    let mut out = seed.bytes();
    let parts = seed.parts();
    for _ in 0..1 + rng.next_below(3) {
        let (lo, hi) = parts[rng.next_below(3) as usize];
        let (lo, hi) = (lo.min(out.len()), hi.min(out.len()));
        let at = if hi > lo {
            lo + rng.next_below((hi - lo) as u64) as usize
        } else {
            rng.next_below(out.len() as u64 + 1) as usize
        };
        let byte = if rng.next_below(2) == 0 {
            SYNTAX[rng.next_below(SYNTAX.len() as u64) as usize]
        } else {
            rng.next_u64() as u8
        };
        match rng.next_below(5) {
            0 if at < out.len() => out[at] = byte,
            1 if at < out.len() => out[at] ^= 1 << rng.next_below(8),
            2 => out.insert(at, byte),
            3 if at < out.len() => {
                let end = (at + 1 + rng.next_below(8) as usize).min(out.len());
                out.drain(at..end);
            }
            _ => out.truncate(at),
        }
    }
    out
}

/// Send `bytes` as one request, half-close, and read the reply. `Ok`
/// holds a well-formed reply's status and body; `Err` says what was
/// wrong with it.
fn exchange(addr: SocketAddr, bytes: &[u8]) -> Result<(u16, Vec<u8>), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
    // The server may refuse and close before it has read everything;
    // the reply is what counts, so a failed write is not a failure.
    let _ = stream.write_all(bytes);
    // Half-closing ends a body shorter than its `Content-Length`, so
    // the server answers at once instead of waiting out its timeout.
    let _ = stream.shutdown(Shutdown::Write);
    let mut raw = Vec::new();
    if let Err(e) = stream.read_to_end(&mut raw) {
        if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
            return Err(format!("no reply within {READ_TIMEOUT:?}"));
        }
        // A reset after the reply arrived leaves it in `raw`; what
        // follows judges whether it is complete.
    }
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| format!("no complete header in {} reply bytes", raw.len()))?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|_| "non-UTF-8 header")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status = status_line
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.split_once(' '))
        .and_then(|(code, reason)| (!reason.is_empty()).then_some(code))
        .and_then(|code| code.parse::<u16>().ok())
        .filter(|code| STATUSES.contains(code))
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let body = raw[split + 4..].to_vec();
    let length = lines
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|n| n.parse::<usize>().ok())
        .ok_or("no Content-Length header")?;
    if length != body.len() {
        return Err(format!(
            "Content-Length {length}, body {} bytes",
            body.len()
        ));
    }
    Ok((status, body))
}

fn json(body: &[u8]) -> Value {
    parse(&String::from_utf8_lossy(body)).expect("the server replies with JSON")
}

fn submit_base(addr: SocketAddr) -> u64 {
    let (status, body) = exchange(
        addr,
        &Request::new("POST", "/sims", SCENARIO.as_bytes()).bytes(),
    )
    .expect("submit the base sim");
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    json(&body).get("id").and_then(Value::as_i64).unwrap() as u64
}

/// After a mutant: delete any sim it created, replace the base sim if
/// it deleted it, and pause the base sim if it set it running.
fn tidy(addr: SocketAddr, base: &mut u64, reply: &(u16, Vec<u8>)) {
    let request = |method: &str, path: &str| {
        exchange(addr, &Request::new(method, path, b"").bytes()).expect("well-formed reply")
    };
    // A reply that created a sim is `{"id": N}`; snapshots are not
    // JSON, and other documents name no sim but the base.
    let created = parse(&String::from_utf8_lossy(&reply.1))
        .ok()
        .and_then(|v| v.get("id").and_then(Value::as_i64));
    if let Some(id) = created.filter(|&id| reply.0 == 200 && id as u64 != *base) {
        request("DELETE", &format!("/sims/{id}"));
    }
    match request("GET", &format!("/sims/{base}")) {
        (404, _) => *base = submit_base(addr),
        (200, body) => {
            if json(&body).get("state").and_then(Value::as_str) == Some("running") {
                request("POST", &format!("/sims/{base}/pause"));
            }
        }
        (status, _) => panic!("GET /sims/{base} answered {status}"),
    }
}

/// Drop byte ranges from `bytes`, halving the range size, while the
/// request still fails; gives up on the rest after [`SHRINK_BUDGET`].
fn shrink(addr: SocketAddr, mut bytes: Vec<u8>) -> Vec<u8> {
    let start = Instant::now();
    let mut chunk = bytes.len().div_ceil(2);
    while chunk > 0 && start.elapsed() < SHRINK_BUDGET {
        let mut at = 0;
        while at < bytes.len() && start.elapsed() < SHRINK_BUDGET {
            let end = (at + chunk).min(bytes.len());
            let candidate = [&bytes[..at], &bytes[end..]].concat();
            if exchange(addr, &candidate).is_err() {
                bytes = candidate;
            } else {
                at = end;
            }
        }
        chunk /= 2;
    }
    bytes
}

#[test]
fn mutated_requests_get_well_formed_replies() {
    let server = Arc::new(snap_serve::SimServer::new());
    let handle = snap_serve::serve(Arc::clone(&server), "127.0.0.1:0").expect("bind");
    let addr = handle.addr();

    let mut base = submit_base(addr);
    let snapshot = exchange(
        addr,
        &Request::new("GET", &format!("/sims/{base}/snapshot"), b"").bytes(),
    )
    .expect("snapshot")
    .1;
    let mut statuses = std::collections::BTreeMap::<u16, u64>::new();
    for case in 0..CASES {
        let seed = SEED ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut rng = SplitMix64::new(seed);
        let requests = seeds(base, &snapshot);
        let request = &requests[rng.next_below(requests.len() as u64) as usize];
        let bytes = mutate(request, &mut rng);
        match exchange(addr, &bytes) {
            Ok(reply) => {
                *statuses.entry(reply.0).or_default() += 1;
                tidy(addr, &mut base, &reply);
            }
            Err(why) => {
                let small = shrink(addr, bytes.clone());
                panic!(
                    "case {case} (seed {seed:#x}): {why}\n\
                     request: \"{}\"\nshrunk: \"{}\"",
                    bytes.escape_ascii(),
                    small.escape_ascii()
                );
            }
        }
    }
    // The sweep reached past the parser: some mutants were still valid
    // requests, and some were refused.
    assert!(statuses.get(&200).is_some_and(|&n| n > 0), "{statuses:?}");
    assert!(statuses.get(&400).is_some_and(|&n| n > 0), "{statuses:?}");

    let (status, _) = exchange(addr, &Request::new("GET", "/", b"").bytes()).expect("GET /");
    assert_eq!(status, 200);
    let left = json(
        &exchange(addr, &Request::new("GET", "/sims", b"").bytes())
            .unwrap()
            .1,
    );
    assert_eq!(
        left.get("sims")
            .and_then(Value::elements)
            .map(<[Value]>::len),
        Some(1),
        "only the base sim is left: {left:?}"
    );
}
