//! Scheduler equivalence: the wake calendar must be invisible.
//!
//! The event-driven engine skips sleeping nodes and fast-forwards their
//! clocks lazily; the lockstep scheduler advances every node every
//! round. If the wake calendar ever disagrees with what a full
//! `next_activity` scan would return — a missed re-key after a timer
//! arm, a delivery posted to a stale clock — the two diverge. These
//! property tests throw randomized mixed workloads (periodic timers,
//! CSMA traffic under random loss, staggered sensor interrupts) at
//! every scheduler, in one `run_until` call and in random slices, and
//! require bit-identical results: the full trace, channel counters,
//! and every node's instruction count, energy (to the bit), busy/sleep
//! time and architectural registers — or, when a node faults, the same
//! fault. Each epoch is handed only the stimuli due inside it; stimuli
//! due exactly at an epoch boundary are applied by phase 1.
//!
//! The event-driven engine keeps its wake calendar from one `run_until`
//! call to the next. `outside_operations_between_slices` pokes the
//! fleet between slices through every public door that can move a
//! node's next activity, and holds the kept state to the lockstep
//! reference fed the same operations.

use dess::{SimDuration, SimTime};
use proptest::prelude::*;
use snap_apps::blink::blink_program;
use snap_apps::mac::{mac_program, send_on_irq_app, RX_DISPATCH_STUB};
use snap_apps::prelude::install_handler;
use snap_energy::BatteryConfig;
use snap_isa::Reg;
use snap_net::{NetworkSim, Position, Scheduler, Stimulus, TraceKind};
use snap_node::{NodeError, NodeId};

/// One randomized scenario: `mac_nodes` CSMA senders in a ring on a
/// grid, `blink_nodes` timer-periodic nodes (pure timer load, no
/// radio), random per-word loss and staggered sensor interrupts.
#[derive(Debug, Clone)]
struct Scenario {
    mac_nodes: u8,
    blink_nodes: u8,
    loss_ppm: u32,
    loss_seed: u64,
    stagger_us: u64,
    extra_irqs: Vec<(u8, u64)>,
    run_ms: u64,
}

/// Add MAC node `i` (id `i + 1`) of a ring of `ring` at its grid slot:
/// it sends to the next node of the ring on every sensor interrupt.
fn add_mac_node(sim: &mut NetworkSim, i: u8, ring: u8) -> NodeId {
    let dst = if i + 1 == ring { 1 } else { i + 2 };
    let extra = install_handler("EV_IRQ", "app_send_irq");
    let app = format!("{}{}", send_on_irq_app(dst), RX_DISPATCH_STUB);
    let program = mac_program(i + 1, &extra, &app).unwrap();
    let (col, row) = (f64::from(i % 5), f64::from(i / 5));
    sim.add_node(&program, Position::new(col * 8.0, row * 8.0))
}

/// The three schedulers that run the event-driven engine.
const EVENT_DRIVEN: [Scheduler; 3] = [Scheduler::EventDriven, Scheduler::Sharded, Scheduler::Auto];

fn build(s: &Scenario, scheduler: Scheduler) -> NetworkSim {
    let mut sim = NetworkSim::new(12.0);
    sim.set_scheduler(scheduler);
    if s.loss_ppm > 0 {
        sim.set_loss(f64::from(s.loss_ppm) / 1_000_000.0, s.loss_seed);
    }
    for i in 0..s.mac_nodes {
        let id = add_mac_node(&mut sim, i, s.mac_nodes);
        sim.schedule(
            id,
            SimTime::ZERO + SimDuration::from_us(1_000 + s.stagger_us * u64::from(i)),
            Stimulus::SensorIrq,
        );
    }
    // Timer-periodic nodes parked far away: they exercise the wake
    // calendar's timer path (sleep, periodic expiry, re-arm) without
    // joining the radio traffic.
    for i in 0..s.blink_nodes {
        sim.add_node(
            &blink_program().unwrap(),
            Position::new(1_000.0 + f64::from(i) * 100.0, 0.0),
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

/// Everything observable about a finished run, collapsed to comparable
/// (bit-exact) form.
#[derive(Debug, PartialEq)]
struct Observed {
    trace: Vec<snap_net::TraceEvent>,
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
}

/// Randomized scenarios: 3–8 CSMA senders, up to two timer nodes,
/// loss, staggered and extra sensor interrupts, 20–44 ms.
fn scenario() -> impl Strategy<Value = Scenario> {
    (
        (
            3u8..9,
            0u8..3,
            prop::sample::select(vec![0u32, 20_000, 150_000]),
            1u64..1_000,
        ),
        (
            300u64..1_500,
            prop::collection::vec((0u8..8, 2_000u64..30_000), 0..4),
            20u64..45,
        ),
    )
        .prop_map(
            |((mac_nodes, blink_nodes, loss_ppm, loss_seed), (stagger_us, extra_irqs, run_ms))| {
                Scenario {
                    mac_nodes,
                    blink_nodes,
                    loss_ppm,
                    loss_seed,
                    stagger_us,
                    extra_irqs,
                    run_ms,
                }
            },
        )
}

fn horizon(s: &Scenario) -> SimTime {
    SimTime::ZERO + SimDuration::from_ms(s.run_ms)
}

fn node_count(s: &Scenario) -> u32 {
    u32::from(s.mac_nodes) + u32::from(s.blink_nodes)
}

/// What a run to the horizon observes: the whole universe, or the
/// fault it ended in.
fn run(s: &Scenario, scheduler: Scheduler) -> Result<Observed, NodeError> {
    let mut sim = build(s, scheduler);
    sim.run_until(horizon(s))?;
    Ok(observe(&sim, node_count(s)))
}

/// [`run`], reaching the horizon through `run_until` slices that end
/// at the given parts-per-million of it.
fn run_sliced(s: &Scenario, scheduler: Scheduler, cuts_ppm: &[u64]) -> Result<Observed, NodeError> {
    let mut sim = build(s, scheduler);
    let end = horizon(s).as_ps();
    let mut cuts: Vec<u64> = cuts_ppm.iter().map(|&c| end * c / 1_000_000).collect();
    cuts.sort_unstable();
    cuts.push(end);
    for at in cuts {
        sim.run_until(SimTime::from_ps(at))?;
    }
    Ok(observe(&sim, node_count(s)))
}

/// One operation on the fleet from outside, between two slices.
#[derive(Debug, Clone)]
enum Outside {
    /// `schedule` a sensor interrupt this many µs after the slice end
    /// on node `n % nodes`.
    Schedule(u8, u64),
    /// `node_mut(..).trigger_sensor_irq()`.
    Irq(u8),
    /// `node_mut(..).sensors_mut().set_reading(id, value)`.
    Reading(u8, u16, u16),
    /// `set_battery` with a budget of this many nAh: at 1 mA of sleep
    /// current it lasts 3.6 ms per nAh, so some nodes die in the run.
    Battery(u8, u32),
    /// `add_node`: a MAC node that joins the ring's radio range
    /// (`true`), or a timer-periodic blink node (`false`).
    AddNode(bool),
    /// `set_scheduler` on the event-driven side: Auto, EventDriven or
    /// Sharded (the reference stays lockstep).
    Scheduler(u8),
}

fn outside() -> impl Strategy<Value = Outside> {
    prop_oneof![
        (any::<u8>(), 0u64..8_000).prop_map(|(n, us)| Outside::Schedule(n, us)),
        any::<u8>().prop_map(Outside::Irq),
        (any::<u8>(), 0u16..4, any::<u16>()).prop_map(|(n, id, v)| Outside::Reading(n, id, v)),
        (any::<u8>(), 1u32..8).prop_map(|(n, nah)| Outside::Battery(n, nah)),
        any::<bool>().prop_map(Outside::AddNode),
        (0u8..3).prop_map(Outside::Scheduler),
    ]
}

/// Apply `op` to `sim`; `reference` marks the lockstep side, which
/// ignores scheduler flips.
fn apply_outside(sim: &mut NetworkSim, op: &Outside, reference: bool) {
    let nodes = sim.node_count() as u32;
    let node = |n: u8| NodeId(u32::from(n) % nodes + 1);
    match *op {
        Outside::Schedule(n, us) => {
            let at = sim.now() + SimDuration::from_us(us);
            sim.schedule(node(n), at, Stimulus::SensorIrq);
        }
        Outside::Irq(n) => {
            sim.node_mut(node(n)).trigger_sensor_irq();
        }
        Outside::Reading(n, id, value) => {
            sim.node_mut(node(n)).sensors_mut().set_reading(id, value);
        }
        Outside::Battery(n, nah) => {
            let battery = BatteryConfig {
                capacity_uah: f64::from(nah) * 1e-3,
                voltage_v: 3.0,
                sleep_ua: 1_000.0,
                tx_pj_per_word: 50_000.0,
            };
            sim.set_battery(node(n), Some(battery));
        }
        Outside::AddNode(true) if nodes < 20 => {
            // Node ids are sequential, so the new node is MAC node
            // `nodes` of a ring one longer than before.
            add_mac_node(sim, nodes as u8, nodes as u8 + 1);
        }
        Outside::AddNode(_) => {
            sim.add_node(
                &blink_program().unwrap(),
                Position::new(1_000.0 + f64::from(nodes) * 100.0, 50.0),
            );
        }
        Outside::Scheduler(_) if reference => {}
        Outside::Scheduler(k) => {
            let scheduler = [Scheduler::Auto, Scheduler::EventDriven, Scheduler::Sharded];
            sim.set_scheduler(scheduler[usize::from(k)]);
        }
    }
}

fn observe(sim: &NetworkSim, nodes: u32) -> Observed {
    let per_node = (1..=nodes)
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every scheduler observes the same universe, bit for bit, or
    /// reports the same fault.
    #[test]
    fn schedulers_are_observationally_equivalent(s in scenario()) {
        // Lockstep is the reference the others must hit.
        let reference = run(&s, Scheduler::Lockstep);
        if let Ok(r) = &reference {
            prop_assert!(!r.trace.is_empty(), "vacuous scenario: no traffic at all");
        }
        for scheduler in EVENT_DRIVEN {
            let got = run(&s, scheduler);
            match (&got, &reference) {
                (Ok(got), Ok(reference)) => {
                    prop_assert_eq!(
                        &got.trace, &reference.trace,
                        "trace diverged under {:?}", scheduler
                    );
                    prop_assert_eq!(got, reference, "state diverged under {:?}", scheduler);
                }
                (got, reference) => prop_assert_eq!(
                    got.as_ref().err(), reference.as_ref().err(),
                    "fault diverged under {:?}", scheduler
                ),
            }
        }
    }

    /// Slicing is invisible: a scenario run to its horizon in 2–8
    /// random `run_until` slices ends exactly where one call does, fault
    /// included, although every slice syncs the fleet's clocks at its
    /// end and the calendars it keeps must carry over exactly.
    #[test]
    fn sliced_runs_match_one_call(
        s in scenario(),
        cuts_ppm in prop::collection::vec(1u64..1_000_000, 1..8),
    ) {
        for scheduler in [Scheduler::Lockstep].into_iter().chain(EVENT_DRIVEN) {
            let whole = run(&s, scheduler);
            let sliced = run_sliced(&s, scheduler, &cuts_ppm);
            prop_assert_eq!(sliced, whole, "slicing diverged under {:?}", scheduler);
        }
    }

    /// The event-driven engine keeps its wake calendar between calls:
    /// random slices with random outside operations between
    /// them (stimuli, interrupts and sensor readings through
    /// `node_mut`, batteries, new nodes, scheduler flips) end where the
    /// lockstep reference, fed the same operations, ends — after every
    /// slice, not only at the horizon — or in the same fault.
    #[test]
    fn outside_operations_between_slices(
        s in scenario(),
        scheduler in prop::sample::select(EVENT_DRIVEN.to_vec()),
        steps in prop::collection::vec((1u64..1_000_000, outside()), 1..8),
    ) {
        let mut sim = build(&s, scheduler);
        let mut reference = build(&s, Scheduler::Lockstep);
        let end = horizon(&s).as_ps();
        let mut steps = steps;
        steps.sort_by_key(|&(cut, _)| cut);
        let mut slices = steps
            .iter()
            .map(|(cut, op)| (end * cut / 1_000_000, Some(op)))
            .collect::<Vec<_>>();
        slices.push((end, None));
        for (at, op) in slices {
            let at = SimTime::from_ps(at);
            match (sim.run_until(at), reference.run_until(at)) {
                (Ok(()), Ok(())) => {
                    let nodes = sim.node_count() as u32;
                    prop_assert_eq!(
                        observe(&sim, nodes), observe(&reference, nodes),
                        "diverged at {:?} before {:?}", at, op
                    );
                }
                (got, want) => {
                    prop_assert_eq!(got, want, "fault diverged at {:?}", at);
                    break;
                }
            }
            if let Some(op) = op {
                apply_outside(&mut sim, op, false);
                apply_outside(&mut reference, op, true);
            }
        }
    }

    /// Stimuli due exactly on an epoch boundary stay in the stimulus
    /// calendar for phase 1, which applies them after the deliveries
    /// due at their instant and before anything runs: at a delivery
    /// instant (every delivery caps an epoch), often to that word's
    /// receiver or twice to one node, with or without a slice ending
    /// there, and at the horizon. The event-driven engine ends every
    /// slice where the lockstep reference does, or in the same fault.
    #[test]
    fn stimuli_on_epoch_boundaries(
        s in scenario(),
        scheduler in prop::sample::select(EVENT_DRIVEN.to_vec()),
        picks in prop::collection::vec((any::<u16>(), any::<bool>(), any::<bool>()), 1..8),
    ) {
        let Ok(plain) = run(&s, Scheduler::Lockstep) else {
            return;
        };
        let delivered: Vec<(u64, NodeId)> = plain
            .trace
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::Deliver { .. }))
            .map(|e| (e.at_ps, e.node))
            .collect();
        if delivered.is_empty() {
            return;
        }
        let end = horizon(&s).as_ps();
        let mut sim = build(&s, scheduler);
        let mut reference = build(&s, Scheduler::Lockstep);
        let mut cuts = vec![end];
        for &(pick, to_receiver, cut) in &picks {
            let (at, receiver) = delivered[usize::from(pick) % delivered.len()];
            let target = if to_receiver {
                receiver
            } else {
                NodeId(u32::from(pick) % u32::from(s.mac_nodes) + 1)
            };
            for side in [&mut sim, &mut reference] {
                side.schedule(target, SimTime::from_ps(at), Stimulus::SensorIrq);
            }
            if cut {
                cuts.push(at);
            }
        }
        sim.schedule(NodeId(1), SimTime::from_ps(end), Stimulus::SensorIrq);
        reference.schedule(NodeId(1), SimTime::from_ps(end), Stimulus::SensorIrq);
        cuts.sort_unstable();
        cuts.dedup();
        let nodes = node_count(&s);
        for at in cuts {
            let at = SimTime::from_ps(at);
            match (sim.run_until(at), reference.run_until(at)) {
                (Ok(()), Ok(())) => prop_assert_eq!(
                    observe(&sim, nodes), observe(&reference, nodes),
                    "diverged at {:?}", at
                ),
                (got, want) => {
                    prop_assert_eq!(got, want, "fault diverged at {:?}", at);
                    break;
                }
            }
        }
    }

    /// The wake calendar is invisible at scale: on a randomized dense
    /// grid (64 to ~500 nodes) with CSMA traffic spanning the whole
    /// width, every scheduler observes the universe the lockstep
    /// scheduler does, bit for bit.
    #[test]
    fn sharded_grid_matches_sequential(
        side in 8usize..23,
        mac_nodes in 4u8..9,
        loss_ppm in prop::sample::select(vec![0u32, 150_000]),
        loss_seed in 1u64..1_000,
        stagger_us in 300u64..1_200,
        run_ms in 6u64..14,
    ) {
        let build_grid = |scheduler: Scheduler| {
            let mut sim = NetworkSim::new(12.0);
            sim.set_scheduler(scheduler);
            if loss_ppm > 0 {
                sim.set_loss(f64::from(loss_ppm) / 1_000_000.0, loss_seed);
            }
            // A CSMA ring strung along row 0 of the grid: neighbours
            // are 8 m apart (in range).
            for i in 0..mac_nodes {
                let dst = if i + 1 == mac_nodes { 1 } else { i + 2 };
                let extra = install_handler("EV_IRQ", "app_send_irq");
                let app = format!("{}{}", send_on_irq_app(dst), RX_DISPATCH_STUB);
                let program = mac_program(i + 1, &extra, &app).unwrap();
                let id = sim.add_node(
                    &program,
                    Position::new(f64::from(i) * 8.0, 0.0),
                );
                sim.schedule(
                    id,
                    SimTime::ZERO
                        + SimDuration::from_us(1_000 + stagger_us * u64::from(i)),
                    Stimulus::SensorIrq,
                );
            }
            // The rest of the grid is timer-periodic filler: each node
            // wakes on its own schedule, exercising the wake calendar
            // without adding radio traffic.
            let filler = side * side - usize::from(mac_nodes);
            let blink = blink_program().unwrap();
            sim.add_nodes_from(
                &blink,
                snap_core::CoreConfig::default(),
                (0..filler).map(|i| {
                    let slot = i + usize::from(mac_nodes);
                    Position::new(
                        (slot % side) as f64 * 8.0,
                        (slot / side) as f64 * 8.0,
                    )
                }),
            );
            sim
        };
        let nodes = (side * side) as u32;
        let horizon = SimTime::ZERO + SimDuration::from_ms(run_ms);
        let mut reference_sim = build_grid(Scheduler::Lockstep);
        reference_sim.run_until(horizon).unwrap();
        let reference = observe(&reference_sim, nodes);
        prop_assert!(!reference.trace.is_empty(), "vacuous grid scenario");
        for scheduler in EVENT_DRIVEN {
            let mut sim = build_grid(scheduler);
            sim.run_until(horizon).unwrap();
            let got = observe(&sim, nodes);
            prop_assert_eq!(
                &got.trace, &reference.trace,
                "trace diverged under {:?}", scheduler
            );
            prop_assert_eq!(&got, &reference, "state diverged under {:?}", scheduler);
        }
    }
}

/// The fade RNG is drawn at delivery, in delivery-calendar order, so
/// the loss/fade sequence must not depend on the scheduler: with 30%
/// word loss the faded/delivered/collided counters and the full trace
/// are identical under every scheduler.
#[test]
fn fade_sequence_is_independent_of_scheduler() {
    let s = Scenario {
        mac_nodes: 7,
        blink_nodes: 2,
        loss_ppm: 300_000,
        loss_seed: 42,
        stagger_us: 500,
        extra_irqs: vec![(2, 9_000), (5, 15_000), (0, 21_000)],
        run_ms: 35,
    };
    let reference = run(&s, Scheduler::Lockstep).unwrap();
    assert!(reference.faded > 0, "scenario never exercised the fade RNG");
    for scheduler in EVENT_DRIVEN {
        let got = run(&s, scheduler).unwrap();
        assert_eq!(
            (got.faded, got.deliveries, got.collisions),
            (reference.faded, reference.deliveries, reference.collisions),
            "channel counters diverged under {scheduler:?}"
        );
        assert_eq!(got, reference, "state diverged under {scheduler:?}");
    }
}

/// A long quiet tail after the traffic dies down: the event-driven
/// engine skips all of it, the lockstep one grinds through — both must
/// land on identical clocks, sleep totals and energy.
#[test]
fn quiet_tail_is_fast_forwarded_identically() {
    let s = Scenario {
        mac_nodes: 5,
        blink_nodes: 1,
        loss_ppm: 0,
        loss_seed: 1,
        stagger_us: 700,
        extra_irqs: vec![],
        run_ms: 120, // traffic is over in ~10 ms; 110 ms of near-silence
    };
    let reference = run(&s, Scheduler::Lockstep).unwrap();
    for scheduler in EVENT_DRIVEN {
        assert_eq!(run(&s, scheduler).unwrap(), reference, "{scheduler:?}");
    }
}
