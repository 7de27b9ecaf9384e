//! Battery exhaustion must be invisible to scheduling choices.
//!
//! A heterogeneous fleet (SNAP MAC ring + ATmega beacon motes + a
//! mains-powered gateway) runs on micro-scale batteries sized so nodes
//! die mid-run. The death instant is part of the observable universe:
//! every execution engine and every scheduler must kill each node at
//! the identical picosecond, record the identical `NodeDeath` trace
//! event, and freeze the corpse identically — and a checkpoint taken
//! while a node is dying (or already dead) must restore to the same
//! universe. See DESIGN.md §12 for the determinism argument.

use dess::{SimDuration, SimTime};
use snap_apps::mac::{mac_program, send_on_irq_app, RX_DISPATCH_STUB};
use snap_apps::prelude::install_handler;
use snap_core::{CoreConfig, Engine};
use snap_net::{NetworkSim, Position, Scheduler, Stimulus, TraceKind};
use snap_node::atmega::tinyos::beacon_system;
use snap_node::{BatteryConfig, NodeId, NodeKind};
use snap_snapshot::Snapshot;

const MAC_NODES: u8 = 2;
const AVR_NODES: u8 = 2;
/// MAC ring ids are 1..=2, motes 3..=4, gateway 5.
const FIRST_AVR: u32 = MAC_NODES as u32 + 1;
const GATEWAY: u32 = MAC_NODES as u32 + AVR_NODES as u32 + 1;
const RUN_TO_US: u64 = 30_000;

/// A test cell drained fast enough to die inside the 30 ms horizon
/// (micro-scale capacities; see the `capacity_uah` docs). The SNAP
/// ring dies around 16 ms; the AVR motes — whose active burn dominates
/// their budget — a few beacons earlier.
fn snap_cell() -> BatteryConfig {
    BatteryConfig {
        capacity_uah: 3.0e-5,
        voltage_v: 3.0,
        sleep_ua: 6.0,
        tx_pj_per_word: 50.0,
    }
}

fn avr_cell() -> BatteryConfig {
    BatteryConfig {
        capacity_uah: 8.4e-4,
        ..BatteryConfig::coin_cell_avr()
    }
}

fn build(engine: Engine, scheduler: Scheduler) -> NetworkSim {
    let core = CoreConfig {
        engine,
        ..CoreConfig::default()
    };
    let mut sim = NetworkSim::new(12.0);
    sim.set_scheduler(scheduler);
    for i in 0..MAC_NODES {
        let dst = if i + 1 == MAC_NODES { 1 } else { i + 2 };
        let extra = install_handler("EV_IRQ", "app_send_irq");
        let app = format!("{}{}", send_on_irq_app(dst), RX_DISPATCH_STUB);
        let program = mac_program(i + 1, &extra, &app).unwrap();
        let id = sim.add_node_with_core(&program, Position::new(f64::from(i) * 8.0, 0.0), core);
        sim.schedule(
            id,
            SimTime::ZERO + SimDuration::from_us(1_000 + 900 * u64::from(i)),
            Stimulus::SensorIrq,
        );
        sim.set_battery(id, Some(snap_cell()));
    }
    // Different beacon periods so the two motes do not transmit in
    // perfect lockstep (identical boots would collide every beacon).
    for i in 0..AVR_NODES {
        let (avr, _) = beacon_system(i + 1, 2 + u16::from(i)).unwrap();
        let id = sim.add_avr_node(avr, Position::new(f64::from(i) * 8.0, -8.0));
        sim.set_battery(id, Some(avr_cell()));
    }
    // The gateway overhears the ring and never carries a budget.
    let done = snap_asm::assemble("done").unwrap();
    sim.add_gateway_with_core(&done, Position::new(4.0, 4.0), core);
    sim
}

/// Everything observable about a finished heterogeneous run, in
/// bit-exact form.
#[derive(Debug, PartialEq)]
struct Observed {
    trace: Vec<snap_net::TraceEvent>,
    deaths: Vec<(u32, u64)>,
    deliveries: u64,
    now_ps: u64,
    per_node: Vec<NodeObserved>,
}

#[derive(Debug, PartialEq)]
struct NodeObserved {
    kind: NodeKind,
    clock_ps: u64,
    /// Instructions (SNAP/gateway) or wall cycles (AVR): the engines
    /// and schedulers must agree on how far each core got.
    progress: u64,
    energy_bits: u64,
    consumed_bits: Option<u64>,
    died_at_ps: Option<u64>,
    uplink_words: usize,
}

fn observe(sim: &NetworkSim) -> Observed {
    let per_node = (1..=sim.node_count() as u32)
        .map(|n| {
            let node = sim.node(NodeId(n));
            let (progress, energy_bits) = match node.avr() {
                Some(mote) => (
                    mote.core().wall_cycles(),
                    mote.active_energy().as_pj().to_bits(),
                ),
                None => {
                    let stats = node.cpu().stats();
                    (stats.instructions, stats.energy.as_pj().to_bits())
                }
            };
            NodeObserved {
                kind: node.kind(),
                clock_ps: node.now().as_ps(),
                progress,
                energy_bits,
                consumed_bits: node.battery_consumed().map(|e| e.as_pj().to_bits()),
                died_at_ps: node.died_at().map(|t| t.as_ps()),
                uplink_words: node.uplink().len(),
            }
        })
        .collect();
    let trace: Vec<snap_net::TraceEvent> = sim.trace().events().to_vec();
    let deaths = trace
        .iter()
        .filter(|e| e.kind == TraceKind::NodeDeath)
        .map(|e| (e.node.0, e.at_ps))
        .collect();
    Observed {
        trace,
        deaths,
        deliveries: sim.channel().deliveries(),
        now_ps: sim.now().as_ps(),
        per_node,
    }
}

fn run(engine: Engine, scheduler: Scheduler) -> Observed {
    let mut sim = build(engine, scheduler);
    sim.run_until(SimTime::ZERO + SimDuration::from_us(RUN_TO_US))
        .unwrap();
    observe(&sim)
}

/// Every engine × scheduler cell kills every budgeted node at the
/// identical picosecond and observes the identical universe.
#[test]
fn battery_death_is_bit_identical_across_engines_and_schedulers() {
    let reference = run(Engine::Interp, Scheduler::Lockstep);
    // The scenario must actually exercise death on *both* platforms,
    // and the gateway must have bridged traffic before the ring died.
    let dead: Vec<u32> = reference.deaths.iter().map(|&(n, _)| n).collect();
    assert!(
        dead.iter().any(|&n| n < FIRST_AVR),
        "no SNAP node died: {reference:?}"
    );
    assert!(
        dead.iter().any(|&n| (FIRST_AVR..GATEWAY).contains(&n)),
        "no AVR mote died: {reference:?}"
    );
    assert!(!dead.contains(&GATEWAY), "the mains-powered gateway died");
    assert!(reference.deliveries > 0, "vacuous scenario: no traffic");
    assert!(
        reference.per_node[GATEWAY as usize - 1].uplink_words > 0,
        "gateway bridged nothing"
    );
    for engine in [Engine::Interp, Engine::Fused, Engine::Aot] {
        for scheduler in [
            Scheduler::Lockstep,
            Scheduler::EventDriven,
            Scheduler::Sharded,
            Scheduler::Auto,
        ] {
            let got = run(engine, scheduler);
            assert_eq!(
                got.deaths, reference.deaths,
                "death instants diverged under {engine:?}/{scheduler:?}"
            );
            assert_eq!(
                got, reference,
                "state diverged under {engine:?}/{scheduler:?}"
            );
        }
    }
}

/// A dead node is frozen: nothing node-produced (transmit, LED, another
/// death) appears in the trace after its death instant, and its clock
/// stops at that instant (schedulers skip corpses instead of syncing
/// them forward).
#[test]
fn dead_nodes_stay_frozen() {
    let reference = run(Engine::Fused, Scheduler::EventDriven);
    for &(node, died_at) in &reference.deaths {
        for e in &reference.trace {
            let node_produced = matches!(
                e.kind,
                TraceKind::Transmit { .. } | TraceKind::Led { .. } | TraceKind::NodeDeath
            );
            assert!(
                !(e.node.0 == node && node_produced && e.at_ps > died_at),
                "dead node {node} produced {e:?} after dying at {died_at}"
            );
        }
        let obs = &reference.per_node[node as usize - 1];
        assert_eq!(obs.died_at_ps, Some(died_at));
        assert_eq!(obs.clock_ps, died_at, "corpse clock moved after death");
    }
}

/// Checkpoint/restore straddling the death instants: a snapshot taken
/// before any death, between the AVR and SNAP waves, and after all
/// deaths must each resume to the bit-identical universe.
#[test]
fn death_instants_survive_snapshot_straddle() {
    let horizon = SimTime::ZERO + SimDuration::from_us(RUN_TO_US);
    let mut straight = build(Engine::Fused, Scheduler::EventDriven);
    straight.run_until(horizon).unwrap();
    let reference = observe(&straight);
    assert!(!reference.deaths.is_empty(), "vacuous scenario: no deaths");
    let first_death = reference.deaths.iter().map(|&(_, at)| at).min().unwrap();
    let last_death = reference.deaths.iter().map(|&(_, at)| at).max().unwrap();
    assert!(first_death < last_death, "want a window between deaths");
    for snap_at_ps in [
        first_death - 1,                // everyone still alive
        (first_death + last_death) / 2, // some corpses aboard
        last_death + 1,                 // all deaths already in the trace
    ] {
        let mut first_leg = build(Engine::Fused, Scheduler::EventDriven);
        first_leg
            .run_until(SimTime::ZERO + SimDuration::from_ps(snap_at_ps))
            .unwrap();
        let bytes = Snapshot::Fleet(Box::new(first_leg.export_snapshot())).to_bytes();
        let back = Snapshot::from_bytes(&bytes).expect("own bytes decode");
        let mut resumed = NetworkSim::from_snapshot(back.as_fleet().unwrap()).unwrap();
        resumed.run_until(horizon).unwrap();
        let got = observe(&resumed);
        assert_eq!(
            got.deaths, reference.deaths,
            "death instants diverged resuming from {snap_at_ps} ps"
        );
        assert_eq!(
            got, reference,
            "state diverged resuming from {snap_at_ps} ps"
        );
    }
}
