//! snapbench: the repository's benchmark. See `BENCHMARK.md`.
//!
//! ```text
//! snapbench --workload W --seed N --seconds S --trace 0|1 [--quick]
//!           [--trace-dir DIR] [--record FILE]
//! snapbench [--seed N] [--seconds S] [--trace 0|1] [--quick]   (every workload, one child process each)
//! snapbench --compare PARENT.jsonl CHANGE.jsonl
//! snapbench --summarize SET.jsonl...
//! ```
//!
//! The last line of a workload run is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`
//! with the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`).

mod compare;
mod fleets;
mod layers;
mod serve;
mod sims;
mod stats;
mod trace;

use dess::SimDuration;
use fleets::GridSpec;
use layers::Fixture;
use sims::FleetWorkload;
use snap_net::{NetworkSim, Scheduler};
use snap_telemetry::{ChromeTrace, Value};
use stats::{Checks, Metric};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

const WORKLOADS: [&str; 4] = ["core_compute", "grid_10k", "grid_100k", "serve_mixed"];

/// The end-to-end metrics every untraced run prints.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("sim_mips", "instr/us"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run prints.
const PER_LAYER: [(&str, &str); 24] = [
    ("snap-asm.assemble_us", "us"),
    ("snap-lint.analyze_us", "us"),
    ("snap-core.fused.ns_per_instr", "ns"),
    ("snap-core.interp.ns_per_instr", "ns"),
    ("snap-core.aot.ns_per_instr", "ns"),
    ("snap-core.ns_per_dispatch", "ns"),
    ("snap-core.instr_per_dispatch", "count"),
    ("snap-node.ns_per_wake", "ns"),
    ("snap-node.avr_ns_per_wake", "ns"),
    ("dess.wake_ns_per_op", "ns"),
    ("snap-net.slice_p50_us", "us"),
    ("snap-net.slice_p99_us", "us"),
    ("snap-net.ns_per_node_ms", "ns"),
    ("snap-net.unexplained_share", "ratio"),
    ("snap-snapshot.export_us_per_node", "us"),
    ("snap-snapshot.restore_us_per_node", "us"),
    ("snap-snapshot.encode_us", "us"),
    ("snap-snapshot.bytes_per_node", "B"),
    ("snap-serve.http_overhead_p50_us", "us"),
    ("snap-serve.submit_us", "us"),
    ("snap-serve.polls_per_session", "count"),
    ("snap-serve.slice_overhead", "ratio"),
    ("snap-telemetry.metrics_report_us", "us"),
    ("trace.overhead", "ratio"),
];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    trace_dir: PathBuf,
    record: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        quick: false,
        trace_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
        record: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--trace-dir" => a.trace_dir = PathBuf::from(value()?),
            "--record" => a.record = Some(value()?),
            "--quick" => a.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    match &a.workload {
        Some(w) if !WORKLOADS.contains(&w.as_str()) => {
            Err(format!("unknown workload {w}; one of {WORKLOADS:?}"))
        }
        _ if a.seconds.is_nan() || a.seconds <= 0.0 => {
            Err("--seconds must be positive".to_string())
        }
        _ => Ok(a),
    }
}

/// What one workload run produced.
struct Report {
    checks: Checks,
    /// The gated metrics: end-to-end, or per-layer when traced.
    metrics: Vec<Metric>,
    /// Ungated figures printed beside them (oracle timings, channel
    /// counters, serve turnaround).
    extras: Vec<Metric>,
    digest: u64,
    /// Recorded spans, per track (traced runs only).
    tracers: Vec<(String, Tracer)>,
}

/// Grid width × height: full size, or ~1% of it for the smoke test.
fn grid_size(name: &str, quick: bool) -> (usize, usize) {
    match (name, quick) {
        ("grid_10k", false) => (100, 100),
        ("grid_10k", true) => (10, 10),
        (_, false) => (400, 250),
        (_, true) => (40, 25),
    }
}

fn fleet_workload(name: &str, seed: u64, quick: bool) -> FleetWorkload {
    match name {
        "core_compute" => sims::core_compute(seed, quick),
        "grid_10k" => sims::grid(
            grid_size(name, quick),
            SimDuration::from_ms(if quick { 20 } else { 25 }),
            SimDuration::from_ms(1),
            SimDuration::from_ms(20),
            &[
                ("event", Scheduler::EventDriven, 1),
                ("sharded1", Scheduler::Sharded, 1),
                ("sharded_auto", Scheduler::Sharded, 8),
            ],
            seed,
        ),
        _ => sims::grid(
            grid_size(name, quick),
            SimDuration::from_ms(10),
            SimDuration::from_ms(10),
            SimDuration::from_ms(10),
            &[
                ("sharded64", Scheduler::Sharded, 64),
                ("sharded8", Scheduler::Sharded, 8),
            ],
            seed,
        ),
    }
}

/// The layer probes' inputs for a workload: its own image, program
/// set, wake schedule and fleet.
fn fixture(name: &str, seed: u64, quick: bool) -> Fixture {
    let scenario = serve::scenario(seed, 0);
    let run = |mut sim: NetworkSim, ms: u64| {
        sim.run_until(dess::SimTime::ZERO + SimDuration::from_ms(ms))
            .expect("fixture fleet runs");
        sim
    };
    match name {
        "core_compute" => Fixture {
            assemble: Box::new(move || fleets::compute_programs(seed)),
            image: fleets::compute_programs(seed).swap_remove(0),
            kick: false,
            wake_keys: fleets::COMPUTE_NODES,
            wake_period_ns: 500_000,
            calendars: 1,
            fleet: Box::new(move || {
                run(
                    fleets::compute_fleet(
                        &fleets::compute_programs(seed),
                        snap_core::Engine::Fused,
                    ),
                    100,
                )
            }),
            scenario,
        },
        "serve_mixed" => {
            let custom = || snap_asm::assemble(serve::CUSTOM_ASM).expect("custom image assembles");
            let fleet_scenario = scenario.clone();
            Fixture {
                assemble: Box::new(move || {
                    let mut v: Vec<_> = (0..5).map(|i| fleets::mac_ring_program(i, 5)).collect();
                    v.push(custom());
                    v
                }),
                image: custom(),
                kick: false,
                wake_keys: 12,
                wake_period_ns: 1_000_000,
                calendars: 1,
                fleet: Box::new(move || {
                    let to = serve::run_to_us(&fleet_scenario);
                    serve::direct_run(&fleet_scenario, to).expect("scenario runs")
                }),
                scenario,
            }
        }
        grid => {
            let (w, h) = grid_size(grid, quick);
            let sharded = w * h >= snap_net::sim::AUTO_SHARDED_THRESHOLD;
            // Snapshots of the grid fleets are probed on the 10k grid:
            // a 100k-node snapshot would hold ~2 GB in flight.
            let snap_side = if quick { 10 } else { 100 };
            Fixture {
                assemble: Box::new(|| {
                    let mut v: Vec<_> = (0..6).map(|i| fleets::mac_ring_program(i, 6)).collect();
                    v.push(fleets::grid_sleeper_program());
                    v
                }),
                image: fleets::grid_sleeper_program(),
                kick: true,
                wake_keys: w * h,
                wake_period_ns: fleets::GRID_PERIOD_US * 1_000,
                calendars: if sharded { 64 } else { 1 },
                fleet: Box::new(move || {
                    let spec = GridSpec::new(snap_side, snap_side, seed);
                    run(spec.build(Scheduler::Auto, 8, SimDuration::from_ms(20)), 20)
                }),
                scenario,
            }
        }
    }
}

/// Restrict this process to the CPU it is running on.
fn pin_to_one_cpu() -> Result<(), String> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: sched_getcpu takes no arguments and only returns a value.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu).map_err(|_| "sched_getcpu failed".to_string())?;
    let mut mask = [0u64; 16];
    *mask
        .get_mut(cpu / 64)
        .ok_or("CPU number beyond the affinity mask")? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live 1024-bit cpu_set_t for the whole call and
    // its size is passed with it; pid 0 is this thread.
    match unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) } {
        0 => Ok(()),
        _ => Err(std::io::Error::last_os_error().to_string()),
    }
}

fn run_fleet(name: &str, args: &Args) -> Result<Report, String> {
    // The sharded engine spreads its epochs over the worker pool. On a
    // shared 2-vCPU host the second vCPU's availability swung whole
    // 20 s runs between ~16 and ~23 instr/us (quartile spread 29-38%
    // over ten runs); on one CPU the same runs stay within ~6%, as the
    // repository's earlier 100k-node rows were measured. The engine
    // then runs its epochs inline.
    if name == "grid_100k" {
        if let Err(e) = pin_to_one_cpu() {
            eprintln!("snapbench: could not pin grid_100k to one CPU ({e}); measuring unpinned");
        }
    }
    let w = fleet_workload(name, args.seed, args.quick);
    let mut checks = Checks::default();
    let reference = sims::warm_up(&w, if args.quick { 0.0 } else { 1.0 }, &mut checks);
    let end = &reference.end;
    let mut extras = vec![
        Metric::new("snap-net.deliveries", "count", end.deliveries as f64, 1),
        Metric::new("snap-net.collisions", "count", end.collisions as f64, 1),
    ];
    if end.deliveries + end.collisions > 0 {
        let ratio = end.deliveries as f64 / (end.deliveries + end.collisions) as f64;
        extras.push(Metric::new("snap-net.delivery_ratio", "ratio", ratio, 1));
    }
    let digest = end.digest();
    if !args.trace {
        let stats = sims::measure(
            &w,
            &reference,
            args.seconds,
            &mut Tracer::off(),
            &mut checks,
        );
        let rss = stats::peak_rss_mb();
        extras.extend(sims::check_oracles(&w, &reference, &mut checks));
        let mut metrics = sims::end_to_end(&stats);
        metrics.push(Metric::new("peak_rss_mb", "MB", rss, 1));
        return Ok(Report {
            checks,
            metrics,
            extras,
            digest,
            tracers: Vec::new(),
        });
    }
    let plain = sims::measure(
        &w,
        &reference,
        args.seconds / 2.0,
        &mut Tracer::off(),
        &mut checks,
    );
    let mut tr = Tracer::on(Instant::now(), 0);
    let traced = sims::measure(&w, &reference, args.seconds / 2.0, &mut tr, &mut checks);
    extras.extend(sims::check_oracles(&w, &reference, &mut checks));
    let f = fixture(name, args.seed, args.quick);
    let mut metrics = layers::probe(&f, &traced, None, args.quick, &mut tr, &mut checks)?;
    metrics.push(Metric::new(
        "trace.overhead",
        "ratio",
        plain.sim_mips() / traced.sim_mips(),
        traced.reps.len(),
    ));
    Ok(Report {
        checks,
        metrics,
        extras,
        digest,
        tracers: vec![("main".to_string(), tr)],
    })
}

fn run_serve(args: &Args) -> Result<Report, String> {
    let mut checks = Checks::default();
    let bench = serve::Bench::start(args.seed, if args.quick { 2 } else { 31 }, &mut checks)?;
    if !args.trace {
        let (stats, _) = bench.measure(args.seconds, &Tracer::off(), &mut checks);
        let mut metrics = stats.end_to_end();
        metrics.push(Metric::new("peak_rss_mb", "MB", stats::peak_rss_mb(), 1));
        return Ok(Report {
            checks,
            metrics,
            extras: stats.extras(),
            digest: stats.digest,
            tracers: Vec::new(),
        });
    }
    let (plain, _) = bench.measure(args.seconds / 2.0, &Tracer::off(), &mut checks);
    let mut tr = Tracer::on(Instant::now(), 0);
    let (traced, clients) = bench.measure(args.seconds / 2.0, &tr, &mut checks);
    checks.same(
        "serve digest, traced vs untraced phase",
        &plain.digest,
        &traced.digest,
    );
    // The snap-net layer figures come from the first session's fleet,
    // run directly in 1 ms slices.
    let scenario = serve::scenario(args.seed, 0);
    let to_us = serve::run_to_us(&scenario);
    let fleet = FleetWorkload {
        horizon: SimDuration::from_us(to_us),
        slice: SimDuration::from_ms(1),
        build: Box::new(move |_: &mut Tracer| {
            serve::direct_run(&scenario, 0).expect("scenario builds")
        }),
        oracle_at: SimDuration::from_us(to_us),
        oracles: Vec::new(),
    };
    let reference = sims::warm_up(&fleet, 0.0, &mut checks);
    let net = sims::measure(
        &fleet,
        &reference,
        if args.quick { 0.05 } else { 0.5 },
        &mut tr,
        &mut checks,
    );
    let f = fixture("serve_mixed", args.seed, args.quick);
    let extras = traced.extras();
    let polls = extras
        .iter()
        .find(|m| m.name == "snap-serve.polls_per_session")
        .cloned();
    let mut metrics = layers::probe(&f, &net, polls, args.quick, &mut tr, &mut checks)?;
    metrics.push(Metric::new(
        "trace.overhead",
        "ratio",
        plain.sim_mips() / traced.sim_mips(),
        traced.sessions,
    ));
    let mut tracers = vec![("main".to_string(), tr)];
    tracers.extend(
        clients
            .into_iter()
            .enumerate()
            .map(|(i, t)| (format!("client-{}", i + 1), t)),
    );
    Ok(Report {
        checks,
        metrics,
        extras,
        digest: traced.digest,
        tracers,
    })
}

fn metric_json(m: &Metric) -> Value {
    let mut v = Value::obj();
    v.set("value", Value::Float(m.value))
        .set("unit", Value::Str(m.unit.to_string()));
    v
}

/// Write `DIR/<workload>.trace.json` and merge this workload's layer
/// report into `DIR/layers.json`.
fn write_trace(dir: &std::path::Path, workload: &str, report: &Report) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut chrome = ChromeTrace::new();
    chrome.process_name(&format!("snapbench {workload} (host time)"));
    let mut self_us = BTreeMap::new();
    for (name, t) in &report.tracers {
        t.export(&mut chrome, name);
        t.self_time_us(&mut self_us);
    }
    // The smoke test validates these files; validating a full-size one
    // here would cost seconds, since snap-telemetry's parser is
    // quadratic in string-heavy input.
    let path = dir.join(format!("{workload}.trace.json"));
    std::fs::write(&path, chrome.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;

    let layers_path = dir.join("layers.json");
    let mut all: Vec<(String, Value)> = std::fs::read_to_string(&layers_path)
        .ok()
        .and_then(|t| snap_telemetry::parse(&t).ok())
        .and_then(|v| v.fields().map(<[_]>::to_vec))
        .unwrap_or_default();
    all.retain(|(k, _)| k != workload);
    let mut entry = Value::obj();
    let obj = |ms: &[Metric]| {
        Value::Obj(
            ms.iter()
                .map(|m| (m.name.clone(), metric_json(m)))
                .collect(),
        )
    };
    entry
        .set("digest", Value::Str(format!("{:016x}", report.digest)))
        .set("metrics", obj(&report.metrics))
        .set("extras", obj(&report.extras))
        .set(
            "self_time_us",
            Value::Obj(
                self_us
                    .into_iter()
                    .map(|(k, v)| (k, Value::Float(v)))
                    .collect(),
            ),
        );
    all.push((workload.to_string(), entry));
    std::fs::write(&layers_path, Value::Obj(all).to_pretty())
        .map_err(|e| format!("{}: {e}", layers_path.display()))
}

/// Run one workload and print its metrics; the last line is the result
/// object.
fn run_one(args: &Args, workload: &str) -> Result<(), String> {
    let mut report = if workload == "serve_mixed" {
        run_serve(args)?
    } else {
        run_fleet(workload, args)?
    };
    if args.trace {
        write_trace(&args.trace_dir, workload, &report)?;
    }
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Value::obj();
    for &(name, unit) in wanted {
        let m = report.metrics.iter().find(|m| m.name == name);
        let ok = m.is_some_and(|m| m.unit == unit && m.value.is_finite());
        report.checks.check(ok, || {
            format!("metric {name} ({unit}) missing or not finite: {m:?}")
        });
        if let Some(m) = m {
            metrics.set(name, metric_json(m));
        }
    }
    for m in report.metrics.iter().chain(&report.extras) {
        println!(
            "{workload} {} = {} {} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!("{workload} digest fnv1a:{:016x}", report.digest);
    let c = report.checks;
    println!(
        "{workload} operations attempted={} failed={}",
        c.attempted, c.failed
    );
    let mut result = Value::obj();
    result
        .set("correct", Value::Bool(c.failed == 0))
        .set("attempted", Value::Int(c.attempted as i64))
        .set("failed", Value::Int(c.failed as i64))
        .set("metrics", metrics);
    if let Some(path) = &args.record {
        let mut line = Value::obj();
        line.set("workload", Value::Str(workload.to_string()))
            .set("seed", Value::Int(args.seed as i64))
            .set("result", result.clone());
        use std::io::Write;
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{}", line.to_compact()))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", result.to_compact());
    Ok(())
}

/// Every workload, each in its own child process (its own peak RSS and
/// allocator state), one after the other.
fn run_all(raw: &[String]) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut failed = Vec::new();
    for w in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(raw)
            .args(["--workload", w])
            .status()
            .map_err(|e| e.to_string())?;
        if !status.success() {
            failed.push(w);
        }
    }
    match failed.as_slice() {
        [] => Ok(()),
        f => Err(format!("workloads failed: {f:?}")),
    }
}

fn run(raw: &[String]) -> Result<bool, String> {
    let benchmark_json = || {
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .map_err(|e| format!("BENCHMARK.json: {e}"))
    };
    match raw.first().map(String::as_str) {
        Some("--compare") => {
            let [_, parent, change] = raw else {
                return Err("usage: --compare PARENT.jsonl CHANGE.jsonl".to_string());
            };
            let gates = compare::gates(&benchmark_json()?)?;
            Ok(!compare::compare(
                &gates,
                &compare::load(parent)?,
                &compare::load(change)?,
            ))
        }
        Some("--summarize") => {
            let sets = raw[1..]
                .iter()
                .map(|p| Ok((p.clone(), compare::load(p)?)))
                .collect::<Result<Vec<_>, String>>()?;
            print!("{}", compare::summarize(&sets).to_pretty());
            Ok(true)
        }
        _ => {
            let args = parse_args(raw)?;
            match &args.workload {
                Some(w) => run_one(&args, w)?,
                None => run_all(raw)?,
            }
            Ok(true)
        }
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match run(&raw) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(e) => {
            eprintln!("snapbench: {e}");
            ExitCode::FAILURE
        }
    }
}
