//! `serve_mixed`: snap-serve on loopback under a closed loop of two
//! client threads, each waiting for every reply.

use crate::fleets::Fingerprint;
use crate::stats::{median, percentile, Checks, Metric};
use crate::trace::Tracer;
use dess::{SimDuration, SimTime, SplitMix64};
use snap_serve::{serve, ServeHandle, SimServer};
use snap_telemetry::Value;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The custom image one session in eight submits; it passes through
/// the server's strict-lint preflight.
pub const CUSTOM_ASM: &str = include_str!("../../examples/asm/blink.s");

/// Client threads, each with at most one open connection.
const CLIENTS: usize = 2;
/// The digest covers the first sessions of the plan, which every run
/// completes.
const DIGEST_SESSIONS: usize = 8;
/// Simulated time a restored session runs past its original target.
const EXTEND_US: u64 = 50_000;
/// A sim that has not finished after this long counts as failed.
const SESSION_TIMEOUT: Duration = Duration::from_secs(60);

/// Session `k`'s scenario: a MAC ring, blink nodes, ATmega motes and a
/// gateway, all on coin-cell budgets; every eighth carries the custom
/// image.
pub fn scenario(seed: u64, k: usize) -> Value {
    let mut rng = SplitMix64::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ k as u64);
    let mut v = Value::obj();
    let int = |x: u64| Value::Int(x as i64);
    v.set("name", Value::Str(format!("s{k}")))
        .set("mac_nodes", int(3 + rng.next_below(3)))
        .set("blink_nodes", int(2 + rng.next_below(3)))
        .set("avr_nodes", int(1 + rng.next_below(2)))
        .set("avr_period_ms", int(15 + rng.next_below(11)))
        .set("gateway", Value::Bool(true))
        .set("battery", Value::Bool(true))
        .set(
            "loss",
            Value::Float(if rng.next_below(2) == 0 { 0.0 } else { 0.05 }),
        )
        .set("loss_seed", int(rng.next_below(1 << 32)))
        .set("stagger_us", int(900))
        .set("run_to_us", int(20_000 + 5_000 * rng.next_below(5)))
        .set("slice_us", int(2_000));
    if k % 8 == 7 {
        v.set("asm", Value::Str(CUSTOM_ASM.to_string()));
    }
    v
}

/// The simulated time a scenario runs to.
pub fn run_to_us(scenario: &Value) -> u64 {
    scenario
        .get("run_to_us")
        .and_then(Value::as_i64)
        .expect("scenario has run_to_us") as u64
}

/// The same scenario built and run directly in process.
pub fn direct_run(scenario: &Value, to_us: u64) -> Result<snap_net::NetworkSim, String> {
    let s = snap_serve::parse_scenario(&scenario.to_compact())?;
    let mut sim = snap_serve::scenario::build(&s)?;
    sim.run_until(SimTime::ZERO + SimDuration::from_us(to_us))
        .map_err(|e| e.to_string())?;
    Ok(sim)
}

/// The served equivalent of [`Fingerprint::of`], read from a status
/// document.
fn served_fingerprint(status: &Value) -> Option<Fingerprint> {
    let int = |v: &Value, k: &str| v.get(k).and_then(Value::as_i64).map(|x| x as u64);
    let nodes = status
        .get("per_node")?
        .elements()?
        .iter()
        .map(|n| {
            let bits = u64::from_str_radix(n.get("energy_bits")?.as_str()?, 16).ok()?;
            Some(match n.get("kind")?.as_str()? {
                "avr" => [int(n, "active_cycles")?, bits, 0],
                _ => [int(n, "instructions")?, bits, int(n, "handlers")?],
            })
        })
        .collect::<Option<Vec<_>>>()?;
    Some(Fingerprint {
        now_ps: int(status, "now_us")? * 1_000_000,
        deliveries: int(status, "deliveries")?,
        collisions: int(status, "collisions")?,
        nodes,
    })
}

/// One HTTP/1.1 exchange; the server closes every connection, so EOF
/// ends the response. Returns the status code and body.
pub fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
) -> Result<(u16, Vec<u8>), String> {
    let mut stream =
        TcpStream::connect_timeout(&addr, Duration::from_secs(10)).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: snapbench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .map_err(|e| e.to_string())?;
    stream.write_all(body).map_err(|e| e.to_string())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(|e| e.to_string())?;
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("no header terminator")?;
    let code = std::str::from_utf8(&raw[..split])
        .ok()
        .and_then(|h| h.split_whitespace().nth(1)?.parse().ok())
        .ok_or("bad status line")?;
    Ok((code, raw[split + 4..].to_vec()))
}

/// A client thread's view: its requests' latencies and checks.
struct Client {
    addr: SocketAddr,
    latencies_ms: Vec<f64>,
    polls: u64,
    checks: Checks,
    tracer: Tracer,
}

impl Client {
    fn new(addr: SocketAddr, tracer: Tracer) -> Client {
        Client {
            addr,
            latencies_ms: Vec::new(),
            polls: 0,
            checks: Checks::default(),
            tracer,
        }
    }

    /// One timed request (connect to last byte); anything but a 200
    /// counts as a failed operation.
    fn call(
        &mut self,
        span: &'static str,
        group: u64,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> Option<Vec<u8>> {
        let start = Instant::now();
        let addr = self.addr;
        let r = self
            .tracer
            .span(span, group, |_| http(addr, method, path, body));
        self.latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
        match r {
            Ok((200, body)) => {
                self.checks.attempted += 1;
                Some(body)
            }
            other => {
                let shown =
                    other.map(|(code, b)| format!("{code} {}", String::from_utf8_lossy(&b)));
                self.checks
                    .check(false, || format!("{method} {path}: {shown:?}"));
                None
            }
        }
    }

    fn call_json(
        &mut self,
        span: &'static str,
        group: u64,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> Option<Value> {
        let body = self.call(span, group, method, path, body)?;
        let v = snap_telemetry::parse(&String::from_utf8_lossy(&body));
        self.checks
            .check(v.is_ok(), || format!("{method} {path}: reply is not JSON"));
        v.ok()
    }

    /// Poll `GET /sims/{id}` every millisecond until it is done.
    fn poll_done(&mut self, group: u64, id: i64) -> Option<Value> {
        let start = Instant::now();
        loop {
            std::thread::sleep(Duration::from_millis(1));
            self.polls += 1;
            let v = self.call_json("http.poll", group, "GET", &format!("/sims/{id}"), b"")?;
            match v.get("state").and_then(Value::as_str) {
                Some("done") => return Some(v),
                Some("running") if start.elapsed() < SESSION_TIMEOUT => {}
                state => {
                    self.checks.check(false, || {
                        format!("sim {id}: state {state:?} after {:?}", start.elapsed())
                    });
                    return None;
                }
            }
        }
    }

    fn sim_id(
        &mut self,
        span: &'static str,
        group: u64,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> Option<i64> {
        self.call_json(span, group, method, path, body)?
            .get("id")
            .and_then(Value::as_i64)
    }

    /// Run session `k` of the plan inside one span.
    fn session(&mut self, k: usize, scenario: &Value) -> Option<SessionResult> {
        let span = self.tracer.begin("bench.session", k as u64 + 1);
        let result = self.session_requests(k, scenario);
        self.tracer.end(span);
        result
    }

    fn session_requests(&mut self, k: usize, scenario: &Value) -> Option<SessionResult> {
        let g = k as u64 + 1;
        let start = Instant::now();
        let id = self.sim_id(
            "http.submit",
            g,
            "POST",
            "/sims",
            scenario.to_compact().as_bytes(),
        )?;
        let status = self.poll_done(g, id)?;
        let turnaround_ms = start.elapsed().as_secs_f64() * 1e3;
        let served = served_fingerprint(&status);
        self.checks.check(served.is_some(), || {
            format!("sim {id}: malformed status document")
        });
        let instructions = status
            .get("per_node")
            .and_then(Value::elements)
            .map_or(0, |nodes| {
                nodes
                    .iter()
                    .filter_map(|n| n.get("instructions")?.as_i64())
                    .sum::<i64>()
            });
        self.call(
            "http.metrics",
            g,
            "GET",
            &format!("/sims/{id}/metrics"),
            b"",
        )?;
        let mut restored = None;
        if k.is_multiple_of(4) {
            let bytes = self.call(
                "http.snapshot",
                g,
                "GET",
                &format!("/sims/{id}/snapshot"),
                b"",
            )?;
            let rid = self.sim_id("http.restore", g, "POST", "/sims/restore", &bytes)?;
            let target = format!("{{\"target_us\": {}}}", run_to_us(scenario) + EXTEND_US);
            self.call(
                "http.run_to",
                g,
                "POST",
                &format!("/sims/{rid}/run-to"),
                target.as_bytes(),
            )?;
            self.call(
                "http.resume",
                g,
                "POST",
                &format!("/sims/{rid}/resume"),
                b"",
            )?;
            restored = Some(served_fingerprint(&self.poll_done(g, rid)?));
            self.call("http.delete", g, "DELETE", &format!("/sims/{rid}"), b"")?;
        }
        if k % 4 == 2 {
            let fid = self.sim_id("http.fork", g, "POST", &format!("/sims/{id}/fork"), b"")?;
            self.call(
                "http.metrics",
                g,
                "GET",
                &format!("/sims/{fid}/metrics"),
                b"",
            )?;
            self.call("http.delete", g, "DELETE", &format!("/sims/{fid}"), b"")?;
        }
        self.call("http.delete", g, "DELETE", &format!("/sims/{id}"), b"")?;
        Some(SessionResult {
            k,
            served: served?,
            instructions: instructions as u64,
            restored,
            turnaround_ms,
        })
    }
}

struct SessionResult {
    k: usize,
    served: Fingerprint,
    instructions: u64,
    restored: Option<Option<Fingerprint>>,
    turnaround_ms: f64,
}

/// Start the server: the registry, the bound listener and its accept
/// thread. Returns the set-up time with the running server, after
/// checking that it answers.
fn start_server() -> Result<(f64, Arc<SimServer>, ServeHandle), String> {
    let start = Instant::now();
    let server = Arc::new(SimServer::new());
    let handle = serve(Arc::clone(&server), "127.0.0.1:0").map_err(|e| e.to_string())?;
    let setup_s = start.elapsed().as_secs_f64();
    match http(handle.addr(), "GET", "/", b"")? {
        (200, _) => Ok((setup_s, server, handle)),
        (code, _) => Err(format!("GET / answered {code}")),
    }
}

/// What one measured phase of `serve_mixed` observed.
#[derive(Default)]
pub struct ServeStats {
    pub setup_s: Vec<f64>,
    pub latencies_ms: Vec<f64>,
    pub turnaround_ms: Vec<f64>,
    pub sessions: usize,
    pub polls: u64,
    pub wall_s: f64,
    pub instructions: u64,
    pub digest: u64,
}

impl ServeStats {
    pub fn sim_mips(&self) -> f64 {
        self.instructions as f64 / (self.wall_s * 1e6)
    }

    pub fn end_to_end(&self) -> Vec<Metric> {
        let n = self.latencies_ms.len();
        vec![
            Metric::new("setup_s", "s", median(&self.setup_s), self.setup_s.len()),
            Metric::new("sim_mips", "instr/us", self.sim_mips(), self.sessions),
            Metric::new("op_p50_ms", "ms", percentile(&self.latencies_ms, 0.5), n),
            Metric::new("op_p99_ms", "ms", percentile(&self.latencies_ms, 0.99), n),
        ]
    }

    /// Serve-only figures, reported beside the layer metrics.
    pub fn extras(&self) -> Vec<Metric> {
        let n = self.turnaround_ms.len();
        vec![
            Metric::new(
                "snap-serve.turnaround_p50_ms",
                "ms",
                percentile(&self.turnaround_ms, 0.5),
                n,
            ),
            Metric::new(
                "snap-serve.turnaround_p99_ms",
                "ms",
                percentile(&self.turnaround_ms, 0.99),
                n,
            ),
            Metric::new(
                "snap-serve.sessions_per_s",
                "1/s",
                self.sessions as f64 / self.wall_s,
                n,
            ),
            Metric::new(
                "snap-serve.polls_per_session",
                "count",
                self.polls as f64 / n.max(1) as f64,
                n,
            ),
        ]
    }
}

/// The running server a phase drives.
pub struct Bench {
    seed: u64,
    server: Arc<SimServer>,
    handle: ServeHandle,
    setup_s: Vec<f64>,
}

impl Bench {
    /// Start the server `setups` times (keeping the last), then warm it
    /// up with two sessions whose results are discarded.
    pub fn start(seed: u64, setups: usize, checks: &mut Checks) -> Result<Bench, String> {
        let mut setup_s = Vec::new();
        let mut running = None;
        for _ in 0..setups {
            let (s, server, handle) = start_server()?;
            setup_s.push(s);
            running = Some((server, handle));
        }
        let (server, handle) = running.ok_or("no set-up ran")?;
        let mut client = Client::new(handle.addr(), Tracer::off());
        for k in 0..2 {
            client.session(k, &scenario(seed, k));
        }
        checks.merge(client.checks);
        Ok(Bench {
            seed,
            server,
            handle,
            setup_s,
        })
    }

    /// Closed-loop sessions from two client threads until `seconds`
    /// pass, then every served result checked against a direct run.
    pub fn measure(
        &self,
        seconds: f64,
        tracer: &Tracer,
        checks: &mut Checks,
    ) -> (ServeStats, Vec<Tracer>) {
        let next = AtomicUsize::new(0);
        let start = Instant::now();
        let seed = self.seed;
        let mut results = Vec::new();
        let mut stats = ServeStats {
            setup_s: self.setup_s.clone(),
            ..ServeStats::default()
        };
        let mut tracers = Vec::new();
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let mut client = Client::new(self.handle.addr(), tracer.fork(c as i64 + 1));
                    let next = &next;
                    scope.spawn(move || {
                        let mut done = Vec::new();
                        loop {
                            let k = next.fetch_add(1, Ordering::SeqCst);
                            if k >= DIGEST_SESSIONS && start.elapsed().as_secs_f64() >= seconds {
                                break;
                            }
                            let sc = scenario(seed, k);
                            if let Some(r) = client.session(k, &sc) {
                                done.push((r, sc));
                            }
                        }
                        (client, done)
                    })
                })
                .collect();
            for w in workers {
                let (client, done) = w.join().expect("client thread");
                stats.latencies_ms.extend(&client.latencies_ms);
                stats.polls += client.polls;
                checks.merge(client.checks);
                tracers.push(client.tracer);
                results.extend(done);
            }
        });
        stats.wall_s = start.elapsed().as_secs_f64();
        results.sort_by_key(|(r, _)| r.k);
        stats.sessions = results.len();
        let mut digest_words = Vec::new();
        for (r, sc) in &results {
            stats.instructions += r.instructions;
            stats.turnaround_ms.push(r.turnaround_ms);
            if r.k < DIGEST_SESSIONS {
                digest_words.push(r.served.digest());
            }
            check_direct(
                checks,
                &format!("session {} served", r.k),
                sc,
                run_to_us(sc),
                Some(&r.served),
            );
            if let Some(restored) = &r.restored {
                let extended = run_to_us(sc) + EXTEND_US;
                check_direct(
                    checks,
                    &format!("session {} restored", r.k),
                    sc,
                    extended,
                    restored.as_ref(),
                );
            }
        }
        stats.digest = crate::stats::digest(&digest_words);
        (stats, tracers)
    }

    /// Polls per session over `sessions` sequential sessions of the
    /// plan on one client.
    pub fn polls_per_session(&self, sessions: usize, checks: &mut Checks) -> f64 {
        let mut client = Client::new(self.handle.addr(), Tracer::off());
        for k in 0..sessions {
            client.session(k, &scenario(self.seed, k));
        }
        checks.merge(client.checks);
        client.polls as f64 / sessions as f64
    }

    /// The in-process SimServer the HTTP front end serves.
    pub fn server(&self) -> &SimServer {
        &self.server
    }

    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }
}

fn check_direct(
    checks: &mut Checks,
    what: &str,
    scenario: &Value,
    to_us: u64,
    served: Option<&Fingerprint>,
) {
    let direct = direct_run(scenario, to_us).map(|sim| Fingerprint::of(&sim));
    match (direct, served) {
        (Ok(want), Some(got)) => {
            checks.check(&want == got, || {
                format!("{what} differs from a direct run: {}", want.diff(got))
            });
        }
        (direct, served) => {
            checks.check(false, || {
                format!("{what}: direct {:?}, served {served:?}", direct.err())
            });
        }
    }
}
