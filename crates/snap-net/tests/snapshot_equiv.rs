//! Checkpoint equivalence: snapshots must be invisible.
//!
//! The defining property of `snap-snapshot`: for any simulation `S`
//! and times `T1 < T2`, running `S` straight to `T2` is bit-identical
//! to running to `T1`, serializing to bytes, restoring a fresh fleet
//! from those bytes, and running that to `T2` — same trace, same
//! channel counters, same event order, same registers, same energy
//! `f64` bits on every node. The property test exercises the full
//! engine × scheduler matrix ({Interp, Fused} × {Lockstep,
//! EventDriven, Sharded, Auto}) with randomized CSMA traffic, random
//! per-word loss (so the fade RNG state must survive the round trip),
//! timer-periodic background nodes and mid-run sensor interrupts, with
//! the snapshot instant drawn at random — including instants with
//! words mid-air and sensor replies pending.

use dess::{SimDuration, SimTime};
use proptest::prelude::*;
use snap_apps::blink::blink_program;
use snap_apps::mac::{mac_program, send_on_irq_app, RX_DISPATCH_STUB};
use snap_apps::prelude::install_handler;
use snap_core::{CoreConfig, Engine};
use snap_isa::Reg;
use snap_net::{NetworkSim, Position, Scheduler, Stimulus};
use snap_node::NodeId;
use snap_snapshot::Snapshot;

#[derive(Debug, Clone)]
struct Scenario {
    mac_nodes: u8,
    blink_nodes: u8,
    loss_ppm: u32,
    loss_seed: u64,
    stagger_us: u64,
    extra_irqs: Vec<(u8, u64)>,
    snap_at_us: u64,
    run_to_us: u64,
}

fn build(s: &Scenario, engine: Engine, scheduler: Scheduler) -> NetworkSim {
    let core = CoreConfig {
        engine,
        ..CoreConfig::default()
    };
    let mut sim = NetworkSim::new(12.0);
    sim.set_scheduler(scheduler);
    if s.loss_ppm > 0 {
        sim.set_loss(f64::from(s.loss_ppm) / 1_000_000.0, s.loss_seed);
    }
    for i in 0..s.mac_nodes {
        let dst = if i + 1 == s.mac_nodes { 1 } else { i + 2 };
        let extra = install_handler("EV_IRQ", "app_send_irq");
        let app = format!("{}{}", send_on_irq_app(dst), RX_DISPATCH_STUB);
        let program = mac_program(i + 1, &extra, &app).unwrap();
        let (col, row) = (f64::from(i % 5), f64::from(i / 5));
        let id = sim.add_node_with_core(&program, Position::new(col * 8.0, row * 8.0), core);
        sim.schedule(
            id,
            SimTime::ZERO + SimDuration::from_us(1_000 + s.stagger_us * u64::from(i)),
            Stimulus::SensorIrq,
        );
    }
    for i in 0..s.blink_nodes {
        sim.add_node_with_core(
            &blink_program().unwrap(),
            Position::new(1_000.0 + f64::from(i) * 100.0, 0.0),
            core,
        );
    }
    for &(node, at_us) in &s.extra_irqs {
        let target = NodeId(u32::from(node % s.mac_nodes) + 1);
        sim.schedule(
            target,
            SimTime::ZERO + SimDuration::from_us(at_us),
            Stimulus::SensorIrq,
        );
    }
    sim
}

/// Everything observable about a finished run, in bit-exact form.
#[derive(Debug, PartialEq)]
struct Observed {
    trace: Vec<snap_net::TraceEvent>,
    trace_recorded: u64,
    deliveries: u64,
    collisions: u64,
    faded: u64,
    now_ps: u64,
    per_node: Vec<NodeObserved>,
}

#[derive(Debug, PartialEq)]
struct NodeObserved {
    instructions: u64,
    energy_bits: u64,
    busy_ps: u64,
    sleep_ps: u64,
    clock_ps: u64,
    regs: [u16; 15],
    handlers: u64,
    words_sent: u64,
    words_heard: u64,
}

fn observe(sim: &NetworkSim) -> Observed {
    let per_node = (1..=sim.node_count() as u32)
        .map(|n| {
            let node = sim.node(NodeId(n));
            let stats = node.cpu().stats();
            let mut regs = [0u16; 15];
            for (i, slot) in regs.iter_mut().enumerate() {
                *slot = node.cpu().regs().read(Reg::ALL[i]);
            }
            NodeObserved {
                instructions: stats.instructions,
                energy_bits: stats.energy.as_pj().to_bits(),
                busy_ps: stats.busy_time.as_ps(),
                sleep_ps: stats.sleep_time.as_ps(),
                clock_ps: node.now().as_ps(),
                regs,
                handlers: stats.handlers_dispatched,
                words_sent: node.radio().words_sent(),
                words_heard: node.radio().words_heard(),
            }
        })
        .collect();
    Observed {
        trace: sim.trace().events().to_vec(),
        trace_recorded: sim.trace().recorded(),
        deliveries: sim.channel().deliveries(),
        collisions: sim.channel().collisions(),
        faded: sim.channel().faded(),
        now_ps: sim.now().as_ps(),
        per_node,
    }
}

/// Straight run vs checkpoint-resume run for one engine × scheduler
/// cell. Randomized MAC scenarios can legitimately fault (e.g. an
/// injected IRQ makes the app transmit while its radio is busy), and a
/// faulting universe must fault identically after a resume — so each
/// leg's `Result` is part of the observation. State is compared only
/// when both legs succeed (an error aborts a window mid-fold, leaving
/// the trace unsealed).
#[allow(clippy::type_complexity)]
fn straight_vs_resumed(
    s: &Scenario,
    engine: Engine,
    scheduler: Scheduler,
) -> (
    Result<Observed, snap_node::NodeError>,
    Result<Observed, snap_node::NodeError>,
    usize,
) {
    let t1 = SimTime::ZERO + SimDuration::from_us(s.snap_at_us);
    let t2 = SimTime::ZERO + SimDuration::from_us(s.run_to_us);

    let mut straight = build(s, engine, scheduler);
    let straight_result = straight.run_until(t2);

    let mut first_leg = build(s, engine, scheduler);
    if let Err(e) = first_leg.run_until(t1) {
        // Faulted before the checkpoint instant: the straight leg must
        // observe the identical fault.
        return (straight_result.map(|()| observe(&straight)), Err(e), 0);
    }
    // Full wire round trip, not just the in-memory structs: the bytes
    // are what `snap-serve` and `srun --restore` actually move around.
    let bytes = Snapshot::Fleet(Box::new(first_leg.export_snapshot())).to_bytes();
    let restored = Snapshot::from_bytes(&bytes).expect("own bytes decode");
    let mut resumed = NetworkSim::from_snapshot(restored.as_fleet().unwrap()).unwrap();
    drop(first_leg);
    let resumed_result = resumed.run_until(t2);

    (
        straight_result.map(|()| observe(&straight)),
        resumed_result.map(|()| observe(&resumed)),
        bytes.len(),
    )
}

const ENGINES: [Engine; 2] = [Engine::Interp, Engine::Fused];
const SCHEDULERS: [Scheduler; 4] = [
    Scheduler::Lockstep,
    Scheduler::EventDriven,
    Scheduler::Sharded,
    Scheduler::Auto,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The defining property, over the full 3 × 4 matrix.
    #[test]
    fn resume_from_snapshot_is_bit_identical(
        mac_nodes in 3u8..7,
        blink_nodes in 0u8..3,
        loss_ppm in prop::sample::select(vec![0u32, 150_000]),
        loss_seed in 1u64..1_000,
        stagger_us in 300u64..1_500,
        extra_irqs in prop::collection::vec((0u8..8, 2_000u64..20_000), 0..3),
        snap_at_us in 1_500u64..14_000,
        extra_run_us in 6_000u64..12_000,
    ) {
        let s = Scenario {
            mac_nodes,
            blink_nodes,
            loss_ppm,
            loss_seed,
            stagger_us,
            extra_irqs,
            snap_at_us,
            run_to_us: snap_at_us + extra_run_us,
        };
        for engine in ENGINES {
            for sched in SCHEDULERS {
                let (straight, resumed, _) = straight_vs_resumed(&s, engine, sched);
                match (&straight, &resumed) {
                    (Ok(a), Ok(b)) => {
                        prop_assert!(
                            !a.trace.is_empty(),
                            "vacuous scenario: no traffic at all"
                        );
                        prop_assert_eq!(
                            &b.trace, &a.trace,
                            "trace diverged after resume under {:?}/{:?}", engine, sched
                        );
                        prop_assert_eq!(
                            b, a,
                            "state diverged after resume under {:?}/{:?}", engine, sched
                        );
                    }
                    // A randomized IRQ can legitimately fault the MAC app
                    // (TX while the radio is busy). The resumed universe
                    // must then fault with the *identical* error at the
                    // identical instant.
                    (Err(ea), Err(eb)) => prop_assert_eq!(
                        eb, ea,
                        "fault diverged after resume under {:?}/{:?}", engine, sched
                    ),
                    _ => prop_assert!(
                        false,
                        "one leg faulted, the other did not under {:?}/{:?}: \
                         straight={:?} resumed={:?}",
                        engine, sched, straight, resumed
                    ),
                }
            }
        }
    }

    /// Resuming under a *different* scheduler than the one that took
    /// the checkpoint still lands on the straight run: the snapshot
    /// holds no scheduler-internal state (DESIGN.md §11's mid-epoch
    /// safety argument, exercised).
    #[test]
    fn snapshot_is_scheduler_portable(
        mac_nodes in 3u8..6,
        stagger_us in 300u64..1_200,
        snap_at_us in 1_500u64..9_000,
    ) {
        let s = Scenario {
            mac_nodes,
            blink_nodes: 1,
            loss_ppm: 150_000,
            loss_seed: 7,
            stagger_us,
            extra_irqs: vec![],
            snap_at_us,
            run_to_us: snap_at_us + 9_000,
        };
        let t1 = SimTime::ZERO + SimDuration::from_us(s.snap_at_us);
        let t2 = SimTime::ZERO + SimDuration::from_us(s.run_to_us);
        let mut reference = build(&s, Engine::Fused, Scheduler::Lockstep);
        reference.run_until(t2).unwrap();
        let reference = observe(&reference);

        let mut first_leg = build(&s, Engine::Fused, Scheduler::Lockstep);
        first_leg.run_until(t1).unwrap();
        let snap = first_leg.export_snapshot();
        for resume_sched in SCHEDULERS {
            let mut resumed = NetworkSim::from_snapshot(&snap).unwrap();
            resumed.set_scheduler(resume_sched);
            resumed.run_until(t2).unwrap();
            prop_assert_eq!(
                &observe(&resumed), &reference,
                "resume under {:?} diverged from the straight lockstep run",
                resume_sched
            );
        }
    }
}

/// Snapshot at time zero — before any run — round-trips and resumes
/// identically (the degenerate checkpoint every `--checkpoint-every`
/// sequence starts from).
#[test]
fn snapshot_before_first_run_resumes_identically() {
    let s = Scenario {
        mac_nodes: 3,
        blink_nodes: 1,
        loss_ppm: 0,
        loss_seed: 1,
        stagger_us: 500,
        extra_irqs: vec![],
        snap_at_us: 0,
        run_to_us: 12_000,
    };
    let (straight, resumed, bytes) = straight_vs_resumed(&s, Engine::Fused, Scheduler::EventDriven);
    assert!(bytes > 0);
    assert_eq!(resumed.unwrap(), straight.unwrap());
}

/// A snapshot taken while a word is mid-air (and a TX-done pending)
/// must carry the in-flight transmission: the word still lands, once,
/// at its exact instant.
#[test]
fn mid_air_word_survives_checkpoint() {
    // First sender fires at 1 ms; a word takes ~833 us on air, so
    // 1.3 ms is comfortably mid-flight for the first data word's
    // RTS/CTS exchange window.
    let s = Scenario {
        mac_nodes: 3,
        blink_nodes: 0,
        loss_ppm: 0,
        loss_seed: 1,
        stagger_us: 900,
        extra_irqs: vec![],
        snap_at_us: 1_300,
        run_to_us: 30_000,
    };
    let (straight, resumed, _) = straight_vs_resumed(&s, Engine::Fused, Scheduler::EventDriven);
    let straight = straight.unwrap();
    assert!(
        straight.deliveries > 0,
        "scenario produced no deliveries at all"
    );
    assert_eq!(resumed.unwrap(), straight);
}

/// Repeated checkpoint/restore every millisecond — a chain of resumes
/// — still lands bit-identically on the straight run (what
/// `srun --checkpoint-every` produces).
#[test]
fn chained_checkpoints_accumulate_no_drift() {
    let s = Scenario {
        mac_nodes: 4,
        blink_nodes: 1,
        loss_ppm: 150_000,
        loss_seed: 3,
        stagger_us: 600,
        extra_irqs: vec![],
        snap_at_us: 0,
        run_to_us: 20_000,
    };
    let t2 = SimTime::ZERO + SimDuration::from_us(s.run_to_us);
    let mut straight = build(&s, Engine::Fused, Scheduler::EventDriven);
    straight.run_until(t2).unwrap();

    let mut sim = build(&s, Engine::Fused, Scheduler::EventDriven);
    for ms in 1..=20u64 {
        sim.run_until(SimTime::ZERO + SimDuration::from_ms(ms))
            .unwrap();
        let bytes = Snapshot::Fleet(Box::new(sim.export_snapshot())).to_bytes();
        let back = Snapshot::from_bytes(&bytes).unwrap();
        sim = NetworkSim::from_snapshot(back.as_fleet().unwrap()).unwrap();
    }
    let straight = observe(&straight);
    assert!(straight.deliveries > 0, "scenario produced no deliveries");
    assert_eq!(observe(&sim), straight);
}

/// The event-driven engine keeps its wake calendar between `run_until`
/// calls; a restored fleet starts without it and builds it on its first
/// call. Both must continue bit-identically: the kept state holds
/// nothing a snapshot does not carry. Checked slice by slice after a
/// checkpoint taken mid-traffic, under every scheduler that runs the
/// event-driven engine.
#[test]
fn kept_engine_state_and_restored_copy_continue_identically() {
    let s = Scenario {
        mac_nodes: 5,
        blink_nodes: 2,
        loss_ppm: 150_000,
        loss_seed: 11,
        stagger_us: 650,
        extra_irqs: vec![(1, 7_300), (3, 12_100)],
        snap_at_us: 6_000,
        run_to_us: 24_000,
    };
    for scheduler in [Scheduler::EventDriven, Scheduler::Sharded, Scheduler::Auto] {
        let mut kept = build(&s, Engine::Fused, scheduler);
        for ms in 1..=6u64 {
            kept.run_until(SimTime::ZERO + SimDuration::from_ms(ms))
                .unwrap();
        }
        let bytes = Snapshot::Fleet(Box::new(kept.export_snapshot())).to_bytes();
        let back = Snapshot::from_bytes(&bytes).unwrap();
        let mut restored = NetworkSim::from_snapshot(back.as_fleet().unwrap()).unwrap();
        let heard = kept.channel().deliveries();
        for ms in 7..=24u64 {
            let at = SimTime::ZERO + SimDuration::from_ms(ms);
            let (a, b) = (kept.run_until(at), restored.run_until(at));
            assert_eq!(a, b, "{scheduler:?}: fault diverged at {ms} ms");
            a.unwrap();
            assert_eq!(
                observe(&kept),
                observe(&restored),
                "{scheduler:?}: diverged at {ms} ms"
            );
        }
        assert!(
            kept.channel().deliveries() > heard,
            "no traffic after the checkpoint"
        );
    }
}

/// A program-level fault (here: an injected IRQ makes the MAC app start
/// a TX while a word is already on air) must reproduce **identically**
/// after a checkpoint/restore taken before the fault — same error
/// variant, same node, same picosecond. Faults are part of the
/// deterministic observable, not an excuse for divergence.
#[test]
fn fault_reproduces_identically_after_resume() {
    let s = Scenario {
        mac_nodes: 4,
        blink_nodes: 1,
        loss_ppm: 150_000,
        loss_seed: 3,
        stagger_us: 600,
        // IRQ into node 2 at 5 ms lands mid-transmission and faults the
        // app with RadioBusy shortly after — deterministically.
        extra_irqs: vec![(1, 5_000), (2, 9_000)],
        snap_at_us: 4_000,
        run_to_us: 20_000,
    };
    let (straight, resumed, _) = straight_vs_resumed(&s, Engine::Fused, Scheduler::EventDriven);
    let fault = straight.expect_err("scenario is expected to fault after 4 ms");
    assert!(
        matches!(fault, snap_node::NodeError::RadioBusy { .. }),
        "expected a RadioBusy fault, got {fault:?}"
    );
    assert_eq!(resumed.expect_err("resumed leg must fault too"), fault);
}
