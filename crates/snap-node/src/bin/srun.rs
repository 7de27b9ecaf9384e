//! `srun` — run a SNAP program on a simulated node from the command
//! line, with optional instruction tracing.
//!
//! ```text
//! srun [--trace] [--lint] [--ms N] [--vdd 1.8|0.9|0.6] [--c]
//!      [--engine interp|fused|aot]
//!      [--checkpoint-every N] [--restore FILE.snap]
//!      [--metrics OUT.json] [--trace-out OUT.trace.json] FILE(.s|.c|.bin)
//! ```
//!
//! * `.s` sources are assembled, `.c` sources compiled (with `--c` or by
//!   extension), anything else is loaded as a little-endian word image;
//! * `--ms N` simulates N milliseconds (default 10);
//! * `--checkpoint-every N` writes a versioned `snap-snapshot` node
//!   checkpoint every N simulated milliseconds
//!   (`FILE.ckpt.<t>ms.snap`); a later `--restore` resumes from one
//!   **bit-identically** — same registers, memories, trace and energy
//!   `f64` bits as the uninterrupted run;
//! * `--restore FILE.snap` resumes from a checkpoint instead of loading
//!   a program (`--ms` then counts additional milliseconds; the
//!   engine/vdd flags are ignored — the checkpoint carries its
//!   configuration, and AOT-engine nodes are re-proved and recompiled
//!   from the restored IMEM);
//! * `--trace` prints every executed instruction with its address;
//! * `--lint` runs the `snap-lint` static analysis as a preflight and
//!   refuses to run a program with error-severity findings;
//! * `--engine` selects the translation tier (default `fused`); `aot`
//!   runs the snap-lint termination proof and compiles every proved
//!   handler ahead of time — results are bit-identical across engines;
//! * `--metrics OUT.json` writes a `snap-metrics-v1` report (counters,
//!   energy attribution, handler distributions — see
//!   `docs/OBSERVABILITY.md`);
//! * `--trace-out OUT.trace.json` writes a Chrome `trace_event` file of
//!   the run's handler bursts, viewable in Perfetto;
//! * exits with the node's statistics summary.

use dess::SimDuration;
use snap_core::{CoreState, StepOutcome};
use snap_node::{Node, NodeConfig};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut trace = false;
    let mut lint = false;
    let mut millis: u64 = 10;
    let mut vdd = String::from("1.8");
    let mut force_c = false;
    let mut metrics_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut engine = snap_core::Engine::Fused;
    let mut checkpoint_every: Option<u64> = None;
    let mut restore: Option<String> = None;
    let mut input: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trace" => trace = true,
            "--lint" => lint = true,
            "--c" => force_c = true,
            "--ms" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => millis = v,
                None => return usage("--ms requires a number"),
            },
            "--vdd" => match args.next() {
                Some(v) => vdd = v,
                None => return usage("--vdd requires a voltage"),
            },
            "--metrics" => match args.next() {
                Some(v) => metrics_out = Some(v),
                None => return usage("--metrics requires an output path"),
            },
            "--trace-out" => match args.next() {
                Some(v) => trace_out = Some(v),
                None => return usage("--trace-out requires an output path"),
            },
            "--checkpoint-every" => match args.next().and_then(|v| v.parse().ok()) {
                Some(0) | None => return usage("--checkpoint-every requires a positive ms count"),
                Some(v) => checkpoint_every = Some(v),
            },
            "--restore" => match args.next() {
                Some(v) => restore = Some(v),
                None => return usage("--restore requires a checkpoint path"),
            },
            "--engine" => match args.next().as_deref() {
                Some("interp") => engine = snap_core::Engine::Interp,
                Some("fused") => engine = snap_core::Engine::Fused,
                Some("aot") => engine = snap_core::Engine::Aot,
                Some(other) => {
                    return usage(&format!("unknown engine `{other}` (interp, fused or aot)"))
                }
                None => return usage("--engine requires interp, fused or aot"),
            },
            "--help" | "-h" => return usage(""),
            other => input = Some(other.to_string()),
        }
    }
    if trace && checkpoint_every.is_some() {
        return usage("--checkpoint-every does not combine with --trace");
    }
    // Checkpoint files are named after whatever defined this run.
    let ckpt_base = restore.clone().or_else(|| input.clone());

    let point = match vdd.as_str() {
        "1.8" => snap_energy::OperatingPoint::V1_8,
        "0.9" => snap_energy::OperatingPoint::V0_9,
        "0.6" => snap_energy::OperatingPoint::V0_6,
        other => return usage(&format!("unsupported vdd `{other}` (1.8, 0.9 or 0.6)")),
    };

    let mut node;
    if let Some(ckpt) = &restore {
        if input.is_some() {
            return usage("--restore replaces the input file");
        }
        if lint {
            return usage("--lint analyzes a program input; it cannot run on a checkpoint");
        }
        node = match load_checkpoint(ckpt) {
            Ok(n) => n,
            Err(e) => {
                eprintln!("srun: {e}");
                return ExitCode::FAILURE;
            }
        };
        if metrics_out.is_some() || trace_out.is_some() {
            node.cpu_mut()
                .enable_sampling(snap_telemetry::DEFAULT_RETAIN);
        }
        println!("restored:     {ckpt} at {}", node.now());
    } else {
        let Some(path) = input else {
            return usage("no input file");
        };

        // Build the program by input kind.
        let loaded = match load(&path, force_c) {
            Ok(loaded) => loaded,
            Err(e) => {
                eprintln!("srun: {e}");
                return ExitCode::FAILURE;
            }
        };

        if lint {
            let analysis = match &loaded {
                Loaded::Program(program) => snap_lint::analyze_program(program, point),
                Loaded::Raw { imem, .. } => snap_lint::analyze_image(imem, point),
            };
            for d in &analysis.diagnostics {
                let loc = match (&d.line, d.pc) {
                    (Some((module, line)), _) => format!("{module}:{line}"),
                    (None, Some(pc)) => format!("pc {pc:#05x}"),
                    (None, None) => String::from("program"),
                };
                eprintln!(
                    "srun: lint: {}: {} at {loc}: {}",
                    d.severity.label(),
                    d.lint,
                    d.message
                );
            }
            if !analysis.is_clean() {
                eprintln!(
                    "srun: {path}: refusing to run with error-severity lint findings \
                     (run `snap-lint {path}` for the full report)"
                );
                return ExitCode::FAILURE;
            }
            println!(
                "lint:         clean ({} findings below error severity)",
                analysis.diagnostics.len()
            );
            if analysis.flow.degraded {
                println!("flow:         degraded (whole-image chain claims withdrawn)");
            } else {
                let chains = analysis.flow.chains.len();
                let bounded = analysis
                    .flow
                    .chains
                    .iter()
                    .filter(|c| c.events_per_wake.is_some())
                    .count();
                let peak = analysis
                    .flow
                    .chains
                    .iter()
                    .filter_map(|c| c.peak_queue)
                    .max();
                match peak {
                    Some(p) => println!(
                        "flow:         {bounded}/{chains} activation chains bounded, \
                         worst peak queue {p} of {}",
                        analysis.flow.queue_capacity
                    ),
                    None => println!("flow:         {bounded}/{chains} activation chains bounded"),
                }
            }
        }

        // Tier 2 needs the termination proof: every handler snap-lint
        // proves done-terminating becomes an AOT compilation region.
        let aot_regions: Vec<snap_core::AotRegion> = if engine == snap_core::Engine::Aot {
            let analysis = match &loaded {
                Loaded::Program(program) => snap_lint::analyze_program(program, point),
                Loaded::Raw { imem, .. } => snap_lint::analyze_image(imem, point),
            };
            analysis
                .regions
                .iter()
                .map(|r| snap_core::AotRegion {
                    entry: r.entry,
                    addrs: r.addrs.clone(),
                })
                .collect()
        } else {
            Vec::new()
        };

        let (imem, dmem) = match loaded {
            Loaded::Program(program) => (program.imem_image(), program.dmem_image()),
            Loaded::Raw { imem, dmem } => (imem, dmem),
        };

        let cfg = NodeConfig {
            core: snap_core::CoreConfig {
                engine,
                ..snap_core::CoreConfig::at(point)
            },
            ..NodeConfig::default()
        };
        node = Node::new(cfg);
        if metrics_out.is_some() || trace_out.is_some() {
            node.cpu_mut()
                .enable_sampling(snap_telemetry::DEFAULT_RETAIN);
        }
        node.cpu_mut()
            .load_image(0, &imem)
            .expect("image fits IMEM");
        node.cpu_mut().load_data(0, &dmem).expect("image fits DMEM");
        if engine == snap_core::Engine::Aot {
            // Install after loading: loading drops any compiled image.
            node.cpu_mut().install_aot(&aot_regions);
            println!(
                "aot:          {} compiled blocks over {} proved regions",
                node.cpu().aot_block_count(),
                aot_regions.len()
            );
        }
    }

    if trace {
        // Manual step loop with per-instruction output; timers are
        // fast-forwarded like the core's standalone helpers do. The
        // deadline is relative to the node's clock so `--restore` runs
        // `--ms` additional milliseconds.
        let deadline = node.now() + SimDuration::from_ms(millis);
        loop {
            match node.cpu_mut().step() {
                Ok(StepOutcome::Executed { ins, at, .. }) => {
                    println!("{:>12}  {at:#05x}  {ins}", node.now().to_string());
                }
                Ok(StepOutcome::Woke { event }) => {
                    println!("{:>12}  ---- wake: {event}", node.now().to_string());
                }
                Ok(StepOutcome::Halted) => break,
                Ok(StepOutcome::Asleep) => match node.cpu().next_timer_expiry() {
                    Some(at) if at <= deadline => {
                        node.cpu_mut().advance_idle(at);
                    }
                    _ => break,
                },
                Err(e) => {
                    eprintln!("srun: fault: {e}");
                    return ExitCode::FAILURE;
                }
            }
            if node.now() >= deadline {
                break;
            }
        }
    } else if let Some(every) = checkpoint_every {
        // Advance in checkpoint-sized windows, serializing the node at
        // every boundary. Snapshots are defined exactly at `run_until`
        // boundaries, and restoring one resumes bit-identically.
        let base = ckpt_base.expect("checkpointing requires an input or --restore");
        let deadline = node.now() + SimDuration::from_ms(millis);
        while node.now() < deadline {
            let mut next = node.now() + SimDuration::from_ms(every);
            if next > deadline {
                next = deadline;
            }
            if let Err(e) = node.run_until(next) {
                eprintln!("srun: fault: {e}");
                eprintln!("srun: (checkpoints up to the fault remain on disk)");
                return ExitCode::FAILURE;
            }
            let at_ms = node.now().as_ps() / 1_000_000_000;
            let out = format!("{base}.ckpt.{at_ms}ms.snap");
            let bytes = snap_snapshot::Snapshot::Node(Box::new(node.export_snapshot())).to_bytes();
            if let Err(e) = std::fs::write(&out, &bytes) {
                eprintln!("srun: {out}: {e}");
                return ExitCode::FAILURE;
            }
            println!("checkpoint:   {out} ({} bytes)", bytes.len());
        }
    } else if let Err(e) = node.run_for(SimDuration::from_ms(millis)) {
        eprintln!("srun: fault: {e}");
        return ExitCode::FAILURE;
    }

    let stats = node.cpu().stats();
    println!("---");
    println!("state:        {:?}", node.cpu().state());
    println!("time:         {}", node.now());
    println!("instructions: {}", stats.instructions);
    println!("handlers:     {}", stats.handlers_dispatched);
    println!("energy:       {}", stats.energy);
    println!("busy/sleep:   {} / {}", stats.busy_time, stats.sleep_time);
    if node.cpu().state() == CoreState::Running {
        println!("(still running at the deadline)");
    }

    if let Some(path) = metrics_out {
        // From the node's actual configuration, so `--restore` reports
        // the checkpoint's operating point rather than the flag default.
        let vdd_v = node.cpu().config().operating_point.vdd();
        let report = snap_telemetry::report(
            "srun",
            vdd_v,
            node.now().as_ps(),
            vec![snap_telemetry::node_metrics(0, node.cpu())],
            None,
        );
        if let Err(e) = std::fs::write(&path, report.to_pretty()) {
            eprintln!("srun: {path}: {e}");
            return ExitCode::FAILURE;
        }
        print_distributions(node.cpu());
        println!("metrics:      {path}");
    }
    if let Some(path) = trace_out {
        let mut chrome = snap_telemetry::ChromeTrace::new();
        chrome.process_name("srun");
        chrome.thread_name(0, "node0");
        if let Some(sampler) = node.cpu().sampler() {
            chrome.add_handler_samples(0, sampler.samples());
        }
        if let Err(e) = std::fs::write(&path, chrome.to_json()) {
            eprintln!("srun: {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("trace-out:    {path}");
    }
    ExitCode::SUCCESS
}

/// Print the handler-length and energy-per-handler distributions the
/// sampler collected, in the units the paper reports (dynamic
/// instructions; nJ per handler).
fn print_distributions(cpu: &snap_core::Processor) {
    let Some(sampler) = cpu.sampler() else { return };
    let mut instructions = snap_telemetry::Histogram::new();
    let mut nj = snap_telemetry::Histogram::new();
    for s in sampler.samples() {
        instructions.record(s.instructions as f64);
        nj.record(s.energy.as_pj() / 1000.0);
    }
    let span = |h: &snap_telemetry::Histogram| match (h.min(), h.max(), h.mean()) {
        (Some(min), Some(max), Some(mean)) => {
            format!(
                "min {min:.3}  p50 {p50:.3}  max {max:.3}  mean {mean:.3}",
                p50 = h.quantile(0.5).unwrap()
            )
        }
        _ => String::from("(no samples)"),
    };
    println!(
        "handler len:  {} (dynamic instructions)",
        span(&instructions)
    );
    println!("handler nJ:   {}", span(&nj));
}

/// Restore a node from a `snap-snapshot` checkpoint (the restore
/// re-proves and recompiles the AOT image when the checkpointed engine
/// is tier 2).
fn load_checkpoint(path: &str) -> Result<Node, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let snap = snap_snapshot::Snapshot::from_bytes(&bytes).map_err(|e| format!("{path}: {e}"))?;
    let ns = snap.as_node().ok_or_else(|| {
        format!("{path}: not a node checkpoint (fleet snapshots restore via snap-serve)")
    })?;
    Node::from_snapshot(ns).map_err(|e| format!("{path}: {e}"))
}

/// A loaded input: a full [`snap_asm::Program`] (symbols and source
/// lines available for `--lint`) or a raw word image.
enum Loaded {
    Program(snap_asm::Program),
    Raw { imem: Vec<u16>, dmem: Vec<u16> },
}

fn load(path: &str, force_c: bool) -> Result<Loaded, String> {
    if force_c || path.ends_with(".c") {
        let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let program = snapcc::compile_to_program(&src).map_err(|e| format!("{path}: {e}"))?;
        Ok(Loaded::Program(program))
    } else if path.ends_with(".s") {
        let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let program = snap_asm::assemble(&src).map_err(|e| format!("{path}: {e}"))?;
        Ok(Loaded::Program(program))
    } else {
        let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
        if bytes.len() % 2 != 0 {
            return Err(format!("{path}: odd byte count"));
        }
        let words = bytes
            .chunks_exact(2)
            .map(|c| u16::from_le_bytes([c[0], c[1]]))
            .collect();
        Ok(Loaded::Raw {
            imem: words,
            dmem: Vec::new(),
        })
    }
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("srun: {err}");
    }
    eprintln!(
        "usage: srun [--trace] [--lint] [--ms N] [--vdd 1.8|0.9|0.6] [--c] \
         [--engine interp|fused|aot] \
         [--checkpoint-every N] [--restore FILE.snap] \
         [--metrics OUT.json] [--trace-out OUT.trace.json] FILE(.s|.c|.bin)"
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
