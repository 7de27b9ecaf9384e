//! Per-layer probes for the traced run. Each probe times calls into one
//! crate's public functions from outside, on the workload's own image,
//! fleet or schedule.

use crate::serve;
use crate::sims::RepStats;
use crate::stats::{percentile, Checks, Metric};
use crate::trace::Tracer;
use dess::{SimDuration, SimTime, WakeQueue};
use snap_asm::Program;
use snap_core::{AotRegion, CoreConfig, Engine, Processor};
use snap_energy::OperatingPoint;
use snap_net::NetworkSim;
use snap_node::{Node, NodeConfig, NodeId};
use snap_snapshot::Snapshot;
use snap_telemetry::Value;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// What a workload hands its layer probes.
pub struct Fixture {
    /// Assembles the workload's program set.
    pub assemble: Box<dyn Fn() -> Vec<Program>>,
    /// The image most of the workload's wakes run.
    pub image: Program,
    /// Whether the image's periodic timer starts on a sensor IRQ.
    pub kick: bool,
    /// The wake schedule: keys, period, and how many calendars share
    /// the keys (one per shard).
    pub wake_keys: usize,
    pub wake_period_ns: u64,
    pub calendars: usize,
    /// A fleet to snapshot and report on, already run.
    pub fleet: Box<dyn Fn() -> NetworkSim>,
    /// The scenario the snap-serve probe submits.
    pub scenario: Value,
}

/// Probes that compete for the same host alternate in this many rounds,
/// so each sees the host's fast and slow spells (see
/// `RepStats::best_slices_ms`), and each keeps its fastest round.
const ROUNDS: u32 = 8;

/// Time `f` repeatedly for at least `budget` and `min_reps` calls;
/// returns each call's µs.
fn time_reps(budget: Duration, min_reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    let mut out = Vec::new();
    let start = Instant::now();
    while out.len() < min_reps || start.elapsed() < budget {
        let t = Instant::now();
        f();
        out.push(t.elapsed().as_secs_f64() * 1e6);
    }
    out
}

fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The fastest call, in µs.
fn metric_us(name: &str, samples: &[f64]) -> Metric {
    Metric::new(name, "us", fastest(samples), samples.len())
}

/// Keep `run`'s result if its cost per unit (`.0 / .1`) beats `best`.
fn keep_fastest<T: Copy>(best: &mut Option<(f64, u64, T)>, run: (f64, u64, T)) {
    let per = |r: &(f64, u64, T)| r.0 / r.1.max(1) as f64;
    if best.as_ref().is_none_or(|b| per(&run) < per(b)) {
        *best = Some(run);
    }
}

/// A standalone processor running `image` under `engine`, booted and,
/// when `kick`, with its periodic timer started.
fn booted_core(image: &Program, engine: Engine, kick: bool) -> Processor {
    let mut cpu = Processor::new(CoreConfig {
        engine,
        ..CoreConfig::default()
    });
    cpu.load_image(0, &image.imem_image())
        .expect("image fits IMEM");
    cpu.load_data(0, &image.dmem_image())
        .expect("data fits DMEM");
    if engine == Engine::Aot {
        let analysis = snap_lint::analyze_program(image, OperatingPoint::V1_8);
        let regions: Vec<AotRegion> = analysis
            .regions
            .iter()
            .map(|r| AotRegion {
                entry: r.entry,
                addrs: r.addrs.clone(),
            })
            .collect();
        cpu.install_aot(&regions);
    }
    cpu.run_until_idle(1_000_000).expect("boot reaches done");
    if kick {
        cpu.post_sensor_irq();
        cpu.run_until_idle(1_000_000)
            .expect("kick handler reaches done");
    }
    cpu
}

/// Dispatch timer handlers for `budget`: returns (ns, instructions,
/// dispatches).
fn drive_core(cpu: &mut Processor, budget: Duration) -> (f64, u64, u64) {
    let before = cpu.stats();
    let start = Instant::now();
    while start.elapsed() < budget {
        for _ in 0..64 {
            let Some(at) = cpu.next_timer_expiry() else {
                break;
            };
            cpu.advance_idle(at);
            black_box(
                cpu.run_until_idle(10_000_000)
                    .expect("handler reaches done"),
            );
        }
    }
    let ns = start.elapsed().as_nanos() as f64;
    let after = cpu.stats();
    (
        ns,
        after.instructions - before.instructions,
        after.handlers_dispatched - before.handlers_dispatched,
    )
}

fn core_probes(f: &Fixture, budget: Duration, out: &mut Vec<Metric>) {
    let mut cores: Vec<_> = [
        (Engine::Fused, "fused"),
        (Engine::Interp, "interp"),
        (Engine::Aot, "aot"),
    ]
    .into_iter()
    .map(|(engine, label)| (label, booted_core(&f.image, engine, f.kick), None))
    .collect();
    for (_, cpu, _) in &mut cores {
        drive_core(cpu, budget / 4);
    }
    for _ in 0..ROUNDS {
        for (_, cpu, best) in &mut cores {
            let (ns, instr, dispatches) = drive_core(cpu, budget / ROUNDS);
            keep_fastest(best, (ns, instr, dispatches));
        }
    }
    for (label, _, best) in cores {
        let (ns, instr, dispatches) = best.expect("at least one round");
        out.push(Metric::new(
            &format!("snap-core.{label}.ns_per_instr"),
            "ns",
            ns / instr as f64,
            instr as usize,
        ));
        if label == "fused" {
            out.push(Metric::new(
                "snap-core.ns_per_dispatch",
                "ns",
                ns / dispatches as f64,
                dispatches as usize,
            ));
            out.push(Metric::new(
                "snap-core.instr_per_dispatch",
                "count",
                instr as f64 / dispatches as f64,
                dispatches as usize,
            ));
        }
    }
}

/// Run `node` through `Node::run_until` for `budget`: returns (ns,
/// wakes) with wakes counted by `wakes`.
fn drive_node(node: &mut Node, budget: Duration, wakes: fn(&Node) -> u64) -> (f64, u64, ()) {
    let (w0, start) = (wakes(node), Instant::now());
    while start.elapsed() < budget {
        let to = node.now() + SimDuration::from_ms(10);
        black_box(node.run_until(to).expect("node runs"));
    }
    (start.elapsed().as_nanos() as f64, wakes(node) - w0, ())
}

fn node_probes(f: &Fixture, budget: Duration, out: &mut Vec<Metric>) -> f64 {
    let mut snap = Node::new(NodeConfig {
        id: NodeId(1),
        ..NodeConfig::default()
    });
    snap.load(&f.image).expect("image fits the node");
    if f.kick {
        snap.trigger_sensor_irq();
    }
    let (beacon, _) = snap_node::atmega::tinyos::beacon_system(1, 20).expect("beacon assembles");
    let mut avr = Node::new_avr(NodeId(2), beacon);
    let snap_wakes: fn(&Node) -> u64 = |n| n.cpu().handlers_dispatched();
    let avr_wakes: fn(&Node) -> u64 = |n| n.avr().expect("AVR node").core().irqs_taken();
    drive_node(&mut snap, budget / 4, snap_wakes);
    drive_node(&mut avr, budget / 4, avr_wakes);
    let (mut best_snap, mut best_avr) = (None, None);
    for _ in 0..ROUNDS {
        keep_fastest(
            &mut best_snap,
            drive_node(&mut snap, budget / ROUNDS, snap_wakes),
        );
        keep_fastest(
            &mut best_avr,
            drive_node(&mut avr, budget / ROUNDS, avr_wakes),
        );
    }
    let mut push = |name: &str, best: Option<(f64, u64, ())>| {
        let (ns, wakes, ()) = best.expect("at least one round");
        let ns_per_wake = ns / wakes.max(1) as f64;
        out.push(Metric::new(name, "ns", ns_per_wake, wakes as usize));
        ns_per_wake
    };
    push("snap-node.avr_ns_per_wake", best_avr);
    push("snap-node.ns_per_wake", best_snap)
}

/// Replay the workload's periodic wake schedule through
/// `WakeQueue::pop` / `WakeQueue::set`, the keys split over
/// `calendars` queues as the sharded engine splits its nodes.
fn wake_probe(f: &Fixture, budget: Duration, out: &mut Vec<Metric>) {
    let per = f.wake_keys.div_ceil(f.calendars);
    let mut queues: Vec<WakeQueue> = (0..f.calendars)
        .map(|c| {
            let mut q = WakeQueue::with_keys(per);
            for k in 0..per.min(f.wake_keys.saturating_sub(c * per)) {
                let key = c * per + k;
                q.set(
                    k,
                    SimTime::from_ps(key as u64 * f.wake_period_ns * 1_000 / f.wake_keys as u64),
                );
            }
            q
        })
        .filter(|q| !q.is_empty())
        .collect();
    let period = SimDuration::from_ns(f.wake_period_ns);
    let mut best = None;
    for _ in 0..ROUNDS {
        let (mut ops, start) = (0u64, Instant::now());
        while start.elapsed() < budget / ROUNDS {
            for q in &mut queues {
                for _ in 0..256 {
                    let (at, key) = q.pop().expect("every key is re-armed");
                    q.set(key, at + period);
                }
                ops += 512;
            }
        }
        keep_fastest(&mut best, (start.elapsed().as_nanos() as f64, ops, ()));
    }
    let (ns, ops, ()) = best.expect("at least one round");
    out.push(Metric::new(
        "dess.wake_ns_per_op",
        "ns",
        ns / ops as f64,
        ops as usize,
    ));
}

fn net_metrics(net: &RepStats, ns_per_wake: f64, out: &mut Vec<Metric>) {
    let us: Vec<f64> = net.best_slices_ms().iter().map(|ms| ms * 1e3).collect();
    out.push(Metric::new(
        "snap-net.slice_p50_us",
        "us",
        percentile(&us, 0.5),
        us.len(),
    ));
    out.push(Metric::new(
        "snap-net.slice_p99_us",
        "us",
        percentile(&us, 0.99),
        us.len(),
    ));
    let rep = net.reps.first().expect("at least one rep");
    let (run_ns, node_ms, dispatches) = (net.best_run_ns(), rep.node_ms, rep.dispatches);
    out.push(Metric::new(
        "snap-net.ns_per_node_ms",
        "ns",
        run_ns / node_ms,
        us.len(),
    ));
    // An upper bound on scheduler, channel and barrier self time: what
    // the node layer's own cost per wake does not explain.
    let explained = dispatches as f64 * ns_per_wake / run_ns;
    out.push(Metric::new(
        "snap-net.unexplained_share",
        "ratio",
        1.0 - explained,
        dispatches as usize,
    ));
}

fn snapshot_probes(f: &Fixture, out: &mut Vec<Metric>) {
    let sim = (f.fleet)();
    let nodes = sim.node_count() as f64;
    let mut snap = None;
    let export = time_reps(Duration::ZERO, 3, || snap = Some(sim.export_snapshot()));
    let fleet_snap = snap.expect("exported");
    let mut restored = None;
    let restore = time_reps(Duration::ZERO, 3, || {
        restored = Some(NetworkSim::from_snapshot(&fleet_snap).expect("snapshot restores"))
    });
    drop(restored);
    let wrapped = Snapshot::Fleet(Box::new(fleet_snap));
    let mut bytes = Vec::new();
    let encode = time_reps(Duration::ZERO, 3, || bytes = wrapped.to_bytes());
    out.push(Metric::new(
        "snap-snapshot.export_us_per_node",
        "us",
        fastest(&export) / nodes,
        export.len(),
    ));
    out.push(Metric::new(
        "snap-snapshot.restore_us_per_node",
        "us",
        fastest(&restore) / nodes,
        restore.len(),
    ));
    out.push(metric_us("snap-snapshot.encode_us", &encode));
    out.push(Metric::new(
        "snap-snapshot.bytes_per_node",
        "B",
        bytes.len() as f64 / nodes,
        1,
    ));
    let report = time_reps(Duration::ZERO, 3, || {
        drop(black_box(sim.metrics_report("snapbench", 1.8)))
    });
    out.push(metric_us("snap-telemetry.metrics_report_us", &report));
}

/// snap-serve: in-process submit, served-vs-direct time on the same
/// scenario, HTTP round trip against an in-process status read, and
/// polls per session over HTTP.
fn serve_probes(
    f: &Fixture,
    polls_per_session: Option<Metric>,
    quick: bool,
    checks: &mut Checks,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let bench = serve::Bench::start(0, 1, checks)?;
    // A longer run than a session's, so served and direct times are
    // well above timer resolution.
    let to_us: u64 = if quick { 20_000 } else { 200_000 };
    let Value::Obj(mut fields) = f.scenario.clone() else {
        return Err("scenario is not an object".to_string());
    };
    fields.retain(|(k, _)| k != "run_to_us");
    fields.push(("run_to_us".to_string(), Value::Int(to_us as i64)));
    let scenario = Value::Obj(fields);
    let parsed = snap_serve::parse_scenario(&scenario.to_compact())?;
    let reps = if quick { 2 } else { 5 };
    let (mut submit, mut served, mut direct) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..reps {
        let start = Instant::now();
        let id = bench.server().submit(&parsed)?;
        submit.push(start.elapsed().as_secs_f64() * 1e6);
        let h = bench.server().get(id).ok_or("submitted sim vanished")?;
        let status = snap_serve::wait_terminal(&h, Duration::from_secs(60))?;
        served.push(start.elapsed().as_secs_f64());
        let state = status
            .get("state")
            .and_then(Value::as_str)
            .map(str::to_string);
        checks.same("served probe state", &Some("done".to_string()), &state);
        last = Some(id);
        let start = Instant::now();
        black_box(serve::direct_run(&scenario, to_us)?);
        direct.push(start.elapsed().as_secs_f64());
    }
    out.push(metric_us("snap-serve.submit_us", &submit));
    out.push(Metric::new(
        "snap-serve.slice_overhead",
        "ratio",
        fastest(&served) / fastest(&direct),
        reps,
    ));

    let id = last.ok_or("no probe sim")?;
    let h = bench.server().get(id).ok_or("probe sim vanished")?;
    let path = format!("/sims/{id}");
    let (mut over_http, mut in_process) = (Vec::new(), Vec::new());
    for _ in 0..if quick { 5 } else { 40 } {
        let start = Instant::now();
        let r = serve::http(bench.addr(), "GET", &path, b"");
        over_http.push(start.elapsed().as_secs_f64() * 1e6);
        checks.check(matches!(r, Ok((200, _))), || format!("GET {path}: {r:?}"));
        let start = Instant::now();
        black_box(h.status_json());
        in_process.push(start.elapsed().as_secs_f64() * 1e6);
    }
    out.push(Metric::new(
        "snap-serve.http_overhead_p50_us",
        "us",
        percentile(&over_http, 0.5) - percentile(&in_process, 0.5),
        over_http.len(),
    ));
    out.push(polls_per_session.unwrap_or_else(|| {
        let sessions = if quick { 1 } else { 4 };
        let polls = bench.polls_per_session(sessions, checks);
        Metric::new("snap-serve.polls_per_session", "count", polls, sessions)
    }));
    Ok(())
}

/// Run every probe. `net` holds the workload's traced slices;
/// `polls_per_session` comes from the serve workload itself when it
/// ran, otherwise from a short closed loop against a probe server.
pub fn probe(
    f: &Fixture,
    net: &RepStats,
    polls_per_session: Option<Metric>,
    quick: bool,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> Result<Vec<Metric>, String> {
    let budget = Duration::from_millis(if quick { 20 } else { 400 });
    let mut out = Vec::new();
    let asm = tr.span("snap-asm.assemble_modules", 0, |_| {
        time_reps(budget, 3, || drop(black_box((f.assemble)())))
    });
    out.push(metric_us("snap-asm.assemble_us", &asm));
    let lint = tr.span("snap-lint.analyze_program", 0, |_| {
        time_reps(budget, 3, || {
            drop(black_box(snap_lint::analyze_program(
                &f.image,
                OperatingPoint::V1_8,
            )))
        })
    });
    out.push(metric_us("snap-lint.analyze_us", &lint));
    tr.span("snap-core.processor", 0, |_| {
        core_probes(f, budget, &mut out)
    });
    let ns_per_wake = tr.span("snap-node.run_until", 0, |_| {
        node_probes(f, budget, &mut out)
    });
    tr.span("dess.wake_queue", 0, |_| wake_probe(f, budget, &mut out));
    net_metrics(net, ns_per_wake, &mut out);
    tr.span("snap-snapshot.codec", 0, |_| snapshot_probes(f, &mut out));
    tr.span("snap-serve.probe", 0, |_| {
        serve_probes(f, polls_per_session, quick, checks, &mut out)
    })?;
    Ok(out)
}
