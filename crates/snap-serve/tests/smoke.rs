//! End-to-end server smoke test, over real TCP: submit → stream →
//! pause → snapshot → fork → resume → verify the served, interrupted
//! runs are bit-identical to each other **and** to an uninterrupted
//! in-process run of the same scenario. This is the test CI's
//! `server-smoke` job runs.

use dess::{SimDuration, SimTime};
use snap_net::NetworkSim;
use snap_node::NodeId;
use snap_snapshot::{fnv1a, Snapshot};
use snap_telemetry::{parse, Value};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// One-shot HTTP/1.1 request; the server closes every connection, so
/// reading to EOF delimits the response.
fn request(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> (u16, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header terminator");
    let head = String::from_utf8_lossy(&raw[..text_end]);
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    (status, raw[text_end + 4..].to_vec())
}

fn get_json(addr: SocketAddr, path: &str) -> Value {
    let (status, body) = request(addr, "GET", path, b"");
    assert_eq!(
        status,
        200,
        "GET {path}: {}",
        String::from_utf8_lossy(&body)
    );
    parse(&String::from_utf8_lossy(&body)).expect("json body")
}

fn post_json(addr: SocketAddr, path: &str, body: &str) -> Value {
    let (status, body) = request(addr, "POST", path, body.as_bytes());
    assert_eq!(
        status,
        200,
        "POST {path}: {}",
        String::from_utf8_lossy(&body)
    );
    parse(&String::from_utf8_lossy(&body)).expect("json body")
}

/// Read the SSE stream until a terminal event arrives; returns every
/// `data:` payload seen.
fn stream_until_terminal(addr: SocketAddr, id: i64) -> Vec<Value> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let head = format!("GET /sims/{id}/stream HTTP/1.1\r\nHost: test\r\n\r\n");
    stream.write_all(head.as_bytes()).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("stream to close");
    let text = String::from_utf8_lossy(&raw);
    assert!(text.contains("text/event-stream"), "not SSE: {text}");
    let events: Vec<Value> = text
        .lines()
        .filter_map(|l| l.strip_prefix("data: "))
        .map(|l| parse(l).expect("event json"))
        .collect();
    assert!(!events.is_empty(), "no SSE events before close");
    let last = events.last().unwrap();
    let state = last.get("state").unwrap().as_str().unwrap();
    assert!(
        state == "done" || state == "faulted",
        "stream closed in non-terminal state {state:?}"
    );
    events
}

fn energy_bits(status: &Value) -> Vec<String> {
    status
        .get("per_node")
        .unwrap()
        .elements()
        .unwrap()
        .iter()
        .map(|n| n.get("energy_bits").unwrap().as_str().unwrap().to_string())
        .collect()
}

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

#[test]
fn submit_stream_snapshot_fork_resume_equality() {
    let server = Arc::new(snap_serve::SimServer::new());
    let handle = snap_serve::serve(Arc::clone(&server), "127.0.0.1:0").expect("bind");
    let addr = handle.addr();

    // Service info advertises the snapshot format it speaks.
    let info = get_json(addr, "/");
    assert_eq!(info.get("service").unwrap().as_str(), Some("snap-serve"));
    assert_eq!(
        info.get("snapshot_format_version").unwrap().as_i64(),
        Some(i64::from(snap_snapshot::FORMAT_VERSION))
    );

    // Submit.
    let id = post_json(addr, "/sims", SCENARIO)
        .get("id")
        .unwrap()
        .as_i64()
        .unwrap();

    // Pause lands on a slice boundary, wherever the runner happens to
    // be — the equality below must hold regardless. (On a slow enough
    // machine the sim may even have finished already; that is a valid
    // boundary too.)
    let paused = post_json(addr, &format!("/sims/{id}/pause"), "");
    let paused_at = paused.get("now_us").unwrap().as_i64().unwrap();
    let state = paused.get("state").unwrap().as_str().unwrap();
    assert!(
        state == "paused" || state == "done",
        "unexpected state {state:?}"
    );

    // Snapshot: the bytes must decode as a fleet checkpoint at the
    // paused instant.
    let (status, snap_bytes) = request(addr, "GET", &format!("/sims/{id}/snapshot"), b"");
    assert_eq!(status, 200);
    let decoded = Snapshot::from_bytes(&snap_bytes).expect("snapshot decodes");
    let fleet = decoded.as_fleet().expect("fleet snapshot");
    let restored = NetworkSim::from_snapshot(fleet).expect("snapshot restores");
    assert_eq!(
        restored.now().as_ps() / 1_000_000,
        paused_at as u64,
        "snapshot clock"
    );

    // Fork (server-side snapshot+restore) and restore (round trip of
    // the downloaded bytes) both yield paused siblings.
    let fork_id = post_json(addr, &format!("/sims/{id}/fork"), "")
        .get("id")
        .unwrap()
        .as_i64()
        .unwrap();
    let (status, body) = request(addr, "POST", "/sims/restore", &snap_bytes);
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    let restored_id = parse(&String::from_utf8_lossy(&body))
        .unwrap()
        .get("id")
        .unwrap()
        .as_i64()
        .unwrap();
    post_json(
        addr,
        &format!("/sims/{restored_id}/run-to"),
        r#"{"target_us": 12000}"#,
    );

    // Resume all three universes and stream each to completion.
    for sid in [id, fork_id, restored_id] {
        post_json(addr, &format!("/sims/{sid}/resume"), "");
    }
    for sid in [id, fork_id, restored_id] {
        let events = stream_until_terminal(addr, sid);
        let last = events.last().unwrap();
        assert_eq!(
            last.get("state").unwrap().as_str(),
            Some("done"),
            "sim {sid}: {last:?}"
        );
        assert_eq!(last.get("now_us").unwrap().as_i64(), Some(12_000));
    }

    // Bit-identity across the three served universes: full trace and
    // per-node energy f64 bits.
    let base_trace = get_json(addr, &format!("/sims/{id}/trace"));
    let base_status = get_json(addr, &format!("/sims/{id}"));
    assert!(
        base_trace.get("count").unwrap().as_i64().unwrap() > 0,
        "vacuous run"
    );
    for sid in [fork_id, restored_id] {
        assert_eq!(
            get_json(addr, &format!("/sims/{sid}/trace")),
            base_trace,
            "sim {sid} trace diverged (forked at {paused_at} us)"
        );
        assert_eq!(
            energy_bits(&get_json(addr, &format!("/sims/{sid}"))),
            energy_bits(&base_status),
            "sim {sid} energy diverged"
        );
    }

    // ... and against an uninterrupted in-process run of the same
    // scenario: the server machinery must be invisible.
    let scenario = snap_serve::parse_scenario(SCENARIO).unwrap();
    let mut straight = snap_serve::scenario::build(&scenario).unwrap();
    straight
        .run_until(SimTime::ZERO + SimDuration::from_us(12_000))
        .unwrap();
    assert_eq!(
        base_trace.get("count").unwrap().as_i64().unwrap() as usize,
        straight.trace().events().len(),
        "served trace length diverged from straight run"
    );
    let straight_bits: Vec<String> = (1..=straight.node_count() as u32)
        .map(|n| {
            format!(
                "{:016x}",
                straight
                    .node(NodeId(n))
                    .cpu()
                    .stats()
                    .energy
                    .as_pj()
                    .to_bits()
            )
        })
        .collect();
    assert_eq!(energy_bits(&base_status), straight_bits);

    // The metrics endpoint serves a valid snap-metrics-v1 report.
    let metrics = get_json(addr, &format!("/sims/{id}/metrics"));
    snap_telemetry::validate_metrics(&metrics.to_pretty()).unwrap();

    // Housekeeping: list shows all three; delete removes.
    let sims = get_json(addr, "/sims");
    assert_eq!(sims.get("sims").unwrap().elements().unwrap().len(), 3);
    let (status, _) = request(addr, "DELETE", &format!("/sims/{restored_id}"), b"");
    assert_eq!(status, 200);
    let (status, _) = request(addr, "GET", &format!("/sims/{restored_id}"), b"");
    assert_eq!(status, 404);
}

#[test]
fn bad_requests_get_clean_errors() {
    let server = Arc::new(snap_serve::SimServer::new());
    let handle = snap_serve::serve(Arc::clone(&server), "127.0.0.1:0").expect("bind");
    let addr = handle.addr();

    let (status, body) = request(addr, "POST", "/sims", b"{\"run_to_us\": -5}");
    assert_eq!(status, 400);
    assert!(String::from_utf8_lossy(&body).contains("run_to_us"));

    let (status, _) = request(addr, "GET", "/sims/999", b"");
    assert_eq!(status, 404);

    let (status, body) = request(addr, "POST", "/sims/restore", b"garbage bytes");
    assert_eq!(status, 400, "{}", String::from_utf8_lossy(&body));

    // A well-framed snapshot (valid checksum) whose payload holds a
    // shard count of 0: restore must refuse it, not clamp it to 1.
    let mut forged = Snapshot::Fleet(Box::new(NetworkSim::new(10.0).export_snapshot())).to_bytes();
    forged[17 + 9..17 + 17].copy_from_slice(&0u64.to_le_bytes());
    let sum = fnv1a(&forged[17..]);
    forged[9..17].copy_from_slice(&sum.to_le_bytes());
    assert!(Snapshot::from_bytes(&forged).is_ok(), "framing must pass");
    let (status, body) = request(addr, "POST", "/sims/restore", &forged);
    assert_eq!(status, 400, "{}", String::from_utf8_lossy(&body));

    let (status, _) = request(addr, "GET", "/nope", b"");
    assert_eq!(status, 404);
}

/// `POST /sims` runs the strict `snap-lint` preflight over a custom
/// image: a program the whole-image event-flow analysis can prove
/// overflows the queue is refused with a structured error body, is
/// accepted with `"lint": "skip"`, and a clean image passes untouched.
#[test]
fn submit_preflight_gates_custom_images() {
    let server = Arc::new(snap_serve::SimServer::new());
    let handle = snap_serve::serve(Arc::clone(&server), "127.0.0.1:0").expect("bind");
    let addr = handle.addr();

    // Each timer0 activation posts three copies of its own event: the
    // interprocedural queue-overflow lint fires (no single activation
    // floods the queue, so the old per-handler lints stay silent).
    let flooding = "boot:\\n li r1, 0\\n li r2, h\\n setaddr r1, r2\\n \
                    li r3, 1\\n schedlo r1, r3\\n done\\nh:\\n li r4, 0\\n \
                    swev r4\\n swev r4\\n swev r4\\n done\\n";
    let scenario = |lint: &str| {
        format!("{{\"mac_nodes\": 0, \"asm\": \"{flooding}\"{lint}, \"run_to_us\": 1000}}")
    };

    let (status, body) = request(addr, "POST", "/sims", scenario("").as_bytes());
    assert_eq!(status, 400, "{}", String::from_utf8_lossy(&body));
    let v = parse(&String::from_utf8_lossy(&body)).expect("structured error body");
    assert_eq!(v.get("lint").unwrap().as_str(), Some("strict"));
    let diags = v.get("diagnostics").unwrap().elements().unwrap();
    assert!(
        diags
            .iter()
            .any(|d| d.get("lint").unwrap().as_str() == Some("queue-overflow")),
        "diagnostics should name the flow lint: {}",
        String::from_utf8_lossy(&body)
    );

    let (status, body) = request(
        addr,
        "POST",
        "/sims",
        scenario(", \"lint\": \"skip\"").as_bytes(),
    );
    assert_eq!(
        status,
        200,
        "skip must bypass the gate: {}",
        String::from_utf8_lossy(&body)
    );
    let id = parse(&String::from_utf8_lossy(&body))
        .unwrap()
        .get("id")
        .unwrap()
        .as_i64()
        .unwrap();
    request(addr, "DELETE", &format!("/sims/{id}"), b"");

    let clean = "{\"mac_nodes\": 0, \"asm\": \"boot:\\n done\\n\", \"run_to_us\": 1000}";
    let (status, body) = request(addr, "POST", "/sims", clean.as_bytes());
    assert_eq!(
        status,
        200,
        "lint-clean image must pass: {}",
        String::from_utf8_lossy(&body)
    );
}
