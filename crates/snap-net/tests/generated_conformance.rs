//! Generated multi-node workloads through scheduler equivalence.
//!
//! `snap-smith`'s randomized handler programs exercise corners the
//! hand-written apps never reach — queue-overflow storms, `isw`
//! self-modification, carry-chain arithmetic inside handlers, radio
//! commands issued at odd moments. Here a small mesh of nodes each
//! runs a *different* generated program while exchanging real radio
//! traffic, and the lockstep reference and the event-driven engine
//! (under each scheduler that runs it) must observe bit-identical
//! universes: full trace, channel counters, and every node's registers,
//! instruction count and energy bit pattern.

use dess::{SimDuration, SimTime};
use snap_isa::Reg;
use snap_net::{NetworkSim, Position, Scheduler, Stimulus};
use snap_node::NodeId;
use snap_smith::gen::generate;

/// A triangle of generated nodes close enough to hear each other.
fn build(seeds: &[u64; 3], loss: f64, scheduler: Scheduler) -> NetworkSim {
    let mut sim = NetworkSim::new(12.0);
    sim.set_scheduler(scheduler);
    if loss > 0.0 {
        sim.set_loss(loss, 0xD1CE);
    }
    let positions = [
        Position::new(0.0, 0.0),
        Position::new(8.0, 0.0),
        Position::new(4.0, 6.0),
    ];
    for (i, (&seed, pos)) in seeds.iter().zip(positions).enumerate() {
        let case = generate(seed);
        let program = snap_asm::assemble(&case.source).expect("generated programs assemble");
        let id = sim.add_node(&program, pos);
        // Staggered sensor interrupts keep handlers firing even when a
        // node's own timers go quiet.
        for k in 0..4u64 {
            sim.schedule(
                id,
                SimTime::ZERO + SimDuration::from_us(400 + 900 * k + 130 * i as u64),
                Stimulus::SensorIrq,
            );
        }
    }
    sim
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
}

#[derive(Debug, PartialEq)]
struct Observed {
    trace: Vec<snap_net::TraceEvent>,
    deliveries: u64,
    collisions: u64,
    faded: u64,
    now_ps: u64,
    per_node: Vec<NodeObserved>,
}

fn run(seeds: &[u64; 3], loss: f64, scheduler: Scheduler) -> Observed {
    let mut sim = build(seeds, loss, scheduler);
    sim.run_until(SimTime::ZERO + SimDuration::from_ms(8))
        .unwrap();
    let per_node = (1..=3u32)
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
            }
        })
        .collect();
    Observed {
        trace: sim.trace().events().to_vec(),
        deliveries: sim.channel().deliveries(),
        collisions: sim.channel().collisions(),
        faded: sim.channel().faded(),
        now_ps: sim.now().as_ps(),
        per_node,
    }
}

#[test]
fn generated_meshes_are_scheduler_invariant() {
    let scenarios: [([u64; 3], f64); 3] = [([5, 8, 9], 0.0), ([1, 4, 6], 0.10), ([2, 8, 9], 0.35)];
    for (seeds, loss) in scenarios {
        let reference = run(&seeds, loss, Scheduler::Lockstep);
        let total: u64 = reference.per_node.iter().map(|n| n.instructions).sum();
        assert!(
            total > 1_000,
            "seeds {seeds:?}: vacuous scenario, only {total} instructions"
        );
        for scheduler in [Scheduler::EventDriven, Scheduler::Sharded, Scheduler::Auto] {
            let got = run(&seeds, loss, scheduler);
            assert_eq!(
                got, reference,
                "seeds {seeds:?} loss {loss}: diverged under {scheduler:?}"
            );
        }
    }
}
