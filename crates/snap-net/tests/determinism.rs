//! Event-driven/lockstep equivalence: epochs must be invisible.
//!
//! The same 10-node scenario runs twice — once on the event-driven
//! engine (each epoch runs the due nodes in wake order, and the barrier
//! merges their outputs) and once under the lockstep reference (every
//! node in index order every round). Traces and per-node energy totals
//! must be bit-identical; anything less means the barrier reordered
//! node outputs or perturbed the accounting.

use dess::{SimDuration, SimTime};
use snap_apps::mac::{mac_program, send_on_irq_app, RX_DISPATCH_STUB};
use snap_apps::prelude::install_handler;
use snap_net::{NetworkSim, Position, Scheduler, Stimulus};

fn ms(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_ms(n)
}

/// Ten nodes on a 5×2 grid, each sending to its successor on a
/// staggered sensor interrupt — enough concurrent MAC traffic to
/// exercise deliveries, collisions and backoff on both paths.
fn build(scheduler: Scheduler) -> NetworkSim {
    let mut sim = NetworkSim::new(12.0);
    sim.set_scheduler(scheduler);
    for i in 0u8..10 {
        let dst = if i == 9 { 1 } else { i + 2 };
        let extra = install_handler("EV_IRQ", "app_send_irq");
        let app = format!("{}{}", send_on_irq_app(dst), RX_DISPATCH_STUB);
        let program = mac_program(i + 1, &extra, &app).unwrap();
        let (col, row) = (f64::from(i % 5), f64::from(i / 5));
        let id = sim.add_node(&program, Position::new(col * 8.0, row * 8.0));
        sim.schedule(
            id,
            SimTime::ZERO + SimDuration::from_us(1_000 + 900 * u64::from(i)),
            Stimulus::SensorIrq,
        );
    }
    sim
}

#[test]
fn event_driven_and_lockstep_runs_are_bit_identical() {
    let mut event_driven = build(Scheduler::EventDriven);
    let mut lockstep = build(Scheduler::Lockstep);
    event_driven.run_until(ms(40)).unwrap();
    lockstep.run_until(ms(40)).unwrap();

    // The scenario must actually do something, or the test is vacuous.
    assert!(
        event_driven.channel().deliveries() > 0,
        "no traffic delivered"
    );

    assert_eq!(event_driven.trace().events(), lockstep.trace().events());
    assert_eq!(
        event_driven.channel().deliveries(),
        lockstep.channel().deliveries()
    );
    assert_eq!(
        event_driven.channel().collisions(),
        lockstep.channel().collisions()
    );
    for i in 0u32..10 {
        let id = snap_node::NodeId(i + 1);
        let (p, s) = (
            event_driven.node(id).cpu().stats(),
            lockstep.node(id).cpu().stats(),
        );
        assert_eq!(
            p.instructions,
            s.instructions,
            "node {} instruction count",
            i + 1
        );
        assert_eq!(
            p.energy.as_pj().to_bits(),
            s.energy.as_pj().to_bits(),
            "node {} energy not bit-identical",
            i + 1
        );
        assert_eq!(p.busy_time, s.busy_time, "node {} busy time", i + 1);
    }
}
