//! `netsim` — run a multi-node SNAP network scenario from the command
//! line and export its telemetry.
//!
//! ```text
//! netsim [--app mac|blink|sense] [--nodes N] [--grid WxH] [--ms N]
//!        [--vdd 1.8|0.9|0.6] [--engine interp|fused|aot]
//!        [--metrics OUT.json] [--trace-out OUT.trace.json] [--jsonl OUT.jsonl]
//! ```
//!
//! Scenarios (all built from the `snap-apps` benchmark handlers):
//!
//! * `mac` (default, 3 nodes) — nodes in a line, 5 m apart, 10 m radio
//!   range; node 1 sends a MAC packet to node 2 on each of three
//!   scheduled sensor interrupts, every other node listens.
//! * `blink` — independent Blink nodes (no radio traffic).
//! * `sense` — independent periodic sense-and-log nodes.
//!
//! `--grid WxH` lays the nodes out on a W×H grid (8 m pitch) instead
//! of a line, overriding `--nodes` with W·H. `--engine` selects the
//! per-node translation tier (default `fused`; `aot` compiles
//! snap-lint-proven handlers ahead of time). Every engine is
//! bit-identical.
//!
//! Exports: `--metrics` writes the `snap-metrics-v1` report,
//! `--trace-out` a Chrome `trace_event` file (open it at
//! <https://ui.perfetto.dev> — one track per node), `--jsonl` the raw
//! network-event trace as JSON lines. All formats are documented in
//! `docs/OBSERVABILITY.md`.

use dess::{SimDuration, SimTime};
use snap_apps::blink::blink_program;
use snap_apps::mac::{mac_program, send_on_irq_app, RX_DISPATCH_STUB};
use snap_apps::prelude::install_handler;
use snap_apps::sense::sense_program;
use snap_core::CoreConfig;
use snap_net::{NetworkSim, Position, Stimulus};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut app = String::from("mac");
    let mut nodes: usize = 3;
    let mut grid: Option<(usize, usize)> = None;
    let mut millis: u64 = 50;
    let mut vdd = String::from("1.8");
    let mut engine = snap_core::Engine::Fused;
    let mut metrics_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut jsonl_out: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |flag: &str| match args.next() {
            Some(v) => Ok(v),
            None => Err(format!("{flag} requires a value")),
        };
        let result = match arg.as_str() {
            "--app" => take("--app").map(|v| app = v),
            "--nodes" => take("--nodes").and_then(|v| {
                v.parse()
                    .map(|n: usize| nodes = n.max(1))
                    .map_err(|_| "--nodes requires a number".to_string())
            }),
            "--grid" => take("--grid").and_then(|v| parse_grid(&v).map(|wh| grid = Some(wh))),
            "--ms" => take("--ms").and_then(|v| {
                v.parse()
                    .map(|n| millis = n)
                    .map_err(|_| "--ms requires a number".to_string())
            }),
            "--vdd" => take("--vdd").map(|v| vdd = v),
            "--engine" => take("--engine").and_then(|v| match v.as_str() {
                "interp" => {
                    engine = snap_core::Engine::Interp;
                    Ok(())
                }
                "fused" => {
                    engine = snap_core::Engine::Fused;
                    Ok(())
                }
                "aot" => {
                    engine = snap_core::Engine::Aot;
                    Ok(())
                }
                other => Err(format!("unknown engine `{other}` (interp, fused or aot)")),
            }),
            "--metrics" => take("--metrics").map(|v| metrics_out = Some(v)),
            "--trace-out" => take("--trace-out").map(|v| trace_out = Some(v)),
            "--jsonl" => take("--jsonl").map(|v| jsonl_out = Some(v)),
            "--help" | "-h" => return usage(""),
            other => Err(format!("unknown argument `{other}`")),
        };
        if let Err(e) = result {
            return usage(&e);
        }
    }

    let point = match vdd.as_str() {
        "1.8" => snap_energy::OperatingPoint::V1_8,
        "0.9" => snap_energy::OperatingPoint::V0_9,
        "0.6" => snap_energy::OperatingPoint::V0_6,
        other => return usage(&format!("unsupported vdd `{other}` (1.8, 0.9 or 0.6)")),
    };
    let core = CoreConfig {
        engine,
        ..CoreConfig::at(point)
    };

    let mut sim = NetworkSim::new(10.0);
    sim.enable_telemetry();
    if let Some((w, h)) = grid {
        nodes = w * h;
    }
    if let Err(e) = build_scenario(&mut sim, &app, nodes, grid, core) {
        return usage(&e);
    }
    if let Err(e) = sim.run_until(SimTime::ZERO + SimDuration::from_ms(millis)) {
        eprintln!("netsim: node fault: {e}");
        return ExitCode::FAILURE;
    }

    // Run summary on stdout; file exports as requested.
    let mut instructions = 0u64;
    let mut energy_pj = 0.0f64;
    for id in 1..=sim.node_count() as u32 {
        let stats = sim.node(snap_node::NodeId(id)).cpu().stats();
        instructions += stats.instructions;
        energy_pj += stats.energy.as_pj();
    }
    println!("app:          {app} ({nodes} nodes, {millis} ms at {vdd} V)");
    println!("instructions: {instructions}");
    println!("energy:       {:.3} nJ total", energy_pj / 1000.0);
    println!(
        "channel:      {} delivered, {} collided, {} faded",
        sim.channel().deliveries(),
        sim.channel().collisions(),
        sim.channel().faded()
    );

    let vdd_v: f64 = vdd.parse().expect("validated above");
    if let Some(path) = metrics_out {
        let report = sim.metrics_report("netsim", vdd_v);
        if let Err(e) = std::fs::write(&path, report.to_pretty()) {
            eprintln!("netsim: {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("metrics:      {path}");
    }
    if let Some(path) = trace_out {
        if let Err(e) = std::fs::write(&path, sim.chrome_trace().to_json()) {
            eprintln!("netsim: {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("trace-out:    {path}");
    }
    if let Some(path) = jsonl_out {
        if let Err(e) = std::fs::write(&path, sim.trace().to_json_lines()) {
            eprintln!("netsim: {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("jsonl:        {path}");
    }
    ExitCode::SUCCESS
}

/// Parse a `WxH` grid spec.
fn parse_grid(spec: &str) -> Result<(usize, usize), String> {
    let err = || format!("--grid requires WxH (e.g. 100x100), got `{spec}`");
    let (w, h) = spec.split_once(['x', 'X']).ok_or_else(err)?;
    let w: usize = w.parse().map_err(|_| err())?;
    let h: usize = h.parse().map_err(|_| err())?;
    if w == 0 || h == 0 {
        return Err(err());
    }
    Ok((w, h))
}

/// Populate the network for one named scenario.
fn build_scenario(
    sim: &mut NetworkSim,
    app: &str,
    nodes: usize,
    grid: Option<(usize, usize)>,
    core: CoreConfig,
) -> Result<(), String> {
    let position = move |i: usize| match grid {
        Some((w, _)) => Position::new((i % w) as f64 * 8.0, (i / w) as f64 * 8.0),
        None => Position::new(i as f64 * 5.0, 0.0),
    };
    match app {
        "mac" => {
            // Node 1 sends to node 2 on sensor interrupts; everyone
            // else listens. This is the 3-node scenario the docs walk
            // through in Perfetto.
            let extra = install_handler("EV_IRQ", "app_send_irq");
            let tx_app = format!("{}{}", send_on_irq_app(2), RX_DISPATCH_STUB);
            let sender_prog = mac_program(1, &extra, &tx_app).map_err(|e| format!("mac: {e}"))?;
            let sender = sim.add_node_with_core(&sender_prog, position(0), core);
            for i in 1..nodes {
                let prog = mac_program(i as u8 + 1, "", RX_DISPATCH_STUB)
                    .map_err(|e| format!("mac: {e}"))?;
                sim.add_node_with_core(&prog, position(i), core);
            }
            for ms in [2u64, 12, 22] {
                sim.schedule(
                    sender,
                    SimTime::ZERO + SimDuration::from_ms(ms),
                    Stimulus::SensorIrq,
                );
            }
        }
        "blink" => {
            let prog = blink_program().map_err(|e| format!("blink: {e}"))?;
            sim.add_nodes_from(&prog, core, (0..nodes).map(position));
        }
        "sense" => {
            let prog = sense_program().map_err(|e| format!("sense: {e}"))?;
            sim.add_nodes_from(&prog, core, (0..nodes).map(position));
        }
        other => return Err(format!("unknown app `{other}` (mac, blink or sense)")),
    }
    Ok(())
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("netsim: {err}");
    }
    eprintln!(
        "usage: netsim [--app mac|blink|sense] [--nodes N] [--grid WxH] [--ms N] \
         [--vdd 1.8|0.9|0.6] [--engine interp|fused|aot] \
         [--metrics OUT.json] [--trace-out OUT.trace.json] [--jsonl OUT.jsonl]"
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
