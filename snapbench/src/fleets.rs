//! Seeded programs and fleets. The simulator only ever receives what
//! these functions generate: assembled programs, node placements and
//! stimulus schedules.

use dess::{SimDuration, SimTime, SplitMix64};
use snap_apps::mac::{mac_program, send_on_irq_app, RX_DISPATCH_STUB};
use snap_apps::prelude::{install_handler, PRELUDE};
use snap_asm::{assemble_modules, Program};
use snap_core::{CoreConfig, Engine};
use snap_net::{NetworkSim, Position, Scheduler, Stimulus, TraceMode};
use snap_node::{NodeId, NodeKind};

/// `count` values spread over `lo..lo + span`, one per equal stratum
/// with a seeded offset inside it, in seeded order. Every seed gets a
/// different assignment with nearly the same total work, so host cost
/// barely moves between seeds while the simulated output does.
pub fn stratified(rng: &mut SplitMix64, count: usize, lo: u64, span: u64) -> Vec<u64> {
    let mut v: Vec<u64> = (0..count as u64)
        .map(|i| {
            let (a, b) = (i * span / count as u64, (i + 1) * span / count as u64);
            lo + a + rng.next_below((b - a).max(1))
        })
        .collect();
    for i in (1..v.len()).rev() {
        v.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    v
}

fn boot_arming_timer(handler: &str, first_ticks: u64) -> String {
    let mut boot = String::from("boot:\n");
    boot.push_str(&install_handler("EV_TIMER0", handler));
    boot.push_str(&format!(
        "    li      r1, 0\n    schedhi r1, r0\n    li      r2, {first_ticks}\n    schedlo r1, r2\n    done\n"
    ));
    boot
}

/// The `core_compute` node: a timer handler that runs a `trips`-long
/// mixing loop over its sample history every `period_us`, then re-arms.
pub fn compute_program(trips: u64, period_us: u64, phase_us: u64) -> Program {
    let app = format!(
        r"
.data
ticks: .word 0
mix:   .word 0

.text
crunch_timer:
    lw      r2, ticks(r0)
    addi    r2, 1
    sw      r2, ticks(r0)
    lw      r3, mix(r0)
    li      r1, {trips}
crunch_loop:
    add     r3, r1
    xor     r4, r3
    slli    r4, 1
    add     r4, r2
    subi    r1, 1
    bnez    r1, crunch_loop
    sw      r3, mix(r0)
    li      r1, 0
    schedhi r1, r0
    li      r2, {period_us}
    schedlo r1, r2
    done
"
    );
    let boot = boot_arming_timer("crunch_timer", phase_us);
    assemble_modules(&[
        ("prelude.s", PRELUDE),
        ("boot.s", &boot),
        ("crunch.s", &app),
    ])
    .expect("compute program assembles")
}

/// Nodes in `core_compute`.
pub const COMPUTE_NODES: usize = 16;

/// The seeded `core_compute` programs: loop trips in 32..128,
/// stratified across the 16 nodes, and periods in 300..700 µs that grow
/// with the trips. Pairing periods with trips keeps the mix of handler
/// lengths and wake rates the same for every seed (it sets how much of
/// the host time is dispatch overhead); the seed moves trips, periods
/// and phases between nodes.
pub fn compute_programs(seed: u64) -> Vec<Program> {
    let mut rng = SplitMix64::new(seed ^ 0xC0DE);
    stratified(&mut rng, COMPUTE_NODES, 32, 96)
        .into_iter()
        .map(|trips| {
            let period = 300 + (trips - 32) * 400 / 96 + rng.next_below(5);
            compute_program(trips, period, 1 + rng.next_below(period))
        })
        .collect()
}

/// The `core_compute` fleet: every node out of radio range of the
/// others, default engine and scheduler unless `engine` overrides.
pub fn compute_fleet(programs: &[Program], engine: Engine) -> NetworkSim {
    let mut sim = NetworkSim::new(10.0);
    sim.set_trace_mode(TraceMode::CountOnly);
    let core = CoreConfig {
        engine,
        ..CoreConfig::default()
    };
    for (i, p) in programs.iter().enumerate() {
        sim.add_node_with_core(p, Position::new(i as f64 * 100.0, 0.0), core);
    }
    sim
}

/// Grid sleeper period, in timer ticks (µs).
pub const GRID_PERIOD_US: u64 = 2_000;
/// MAC nodes per contended cluster.
const GRID_MAC_NODES: usize = 6;
/// Contended MAC clusters on evenly spaced grid rows.
const GRID_CLUSTERS: usize = 10;

/// The shared duty-cycled sensing tick every grid filler node runs (the
/// `sim_speed` grid sleeper): count, filter, accumulate, re-arm. Its
/// periodic timer is started by one staggered sensor IRQ per node.
pub fn grid_sleeper_program() -> Program {
    let app = format!(
        r"
.data
ticks: .word 0
ewma:  .word 0
acc:   .word 0
h0:    .word 0
h1:    .word 0
h2:    .word 0
h3:    .word 0
smooth: .word 0

.text
duty_timer:
    lw      r2, ticks(r0)
    addi    r2, 1
    sw      r2, ticks(r0)
    lw      r3, ewma(r0)
    mov     r4, r2
    slli    r4, 3
    xor     r4, r2
    add     r3, r4
    srli    r3, 1
    sw      r3, ewma(r0)
    lw      r5, acc(r0)
    add     r5, r3
    sw      r5, acc(r0)
    lw      r4, h0(r0)
    lw      r5, h1(r0)
    lw      r6, h2(r0)
    lw      r7, h3(r0)
    sw      r3, h0(r0)
    sw      r4, h1(r0)
    sw      r5, h2(r0)
    sw      r6, h3(r0)
    add     r4, r5
    add     r6, r7
    add     r4, r6
    srli    r4, 2
    sw      r4, smooth(r0)
    li      r1, 0
    schedhi r1, r0
    li      r2, {GRID_PERIOD_US}
    schedlo r1, r2
    done

kick_timer:
    li      r1, 0
    schedhi r1, r0
    li      r2, {GRID_PERIOD_US}
    schedlo r1, r2
    done
"
    );
    let mut boot = String::from("boot:\n");
    boot.push_str(&install_handler("EV_TIMER0", "duty_timer"));
    boot.push_str(&install_handler("EV_IRQ", "kick_timer"));
    boot.push_str("    done\n");
    assemble_modules(&[("prelude.s", PRELUDE), ("boot.s", &boot), ("grid.s", &app)])
        .expect("grid program assembles")
}

/// A MAC ring member that sends to its successor on every sensor IRQ.
pub fn mac_ring_program(index: usize, ring: usize) -> Program {
    let dst = if index + 1 == ring { 1 } else { index + 2 } as u8;
    let app = format!("{}{}", send_on_irq_app(dst), RX_DISPATCH_STUB);
    let extra = install_handler("EV_IRQ", "app_send_irq");
    mac_program(index as u8 + 1, &extra, &app).expect("MAC program assembles")
}

/// Everything a grid fleet is built from. The seed sets the sleepers'
/// kick phases and the per-cluster skew of the MAC bursts.
pub struct GridSpec {
    width: usize,
    height: usize,
    mac: Vec<Program>,
    sleeper: Program,
    cluster_skew_us: u64,
    phase_jitter: Vec<u64>,
}

impl GridSpec {
    pub fn new(width: usize, height: usize, seed: u64) -> GridSpec {
        let mut rng = SplitMix64::new(seed ^ 0x6A1D);
        let cluster_skew_us = 100 + rng.next_below(71);
        let nodes = width * height;
        let stride = (GRID_PERIOD_US * 1_000 / nodes as u64).max(1);
        GridSpec {
            width,
            height,
            mac: (0..GRID_MAC_NODES)
                .map(|i| mac_ring_program(i, GRID_MAC_NODES))
                .collect(),
            sleeper: grid_sleeper_program(),
            cluster_skew_us,
            phase_jitter: (0..nodes).map(|_| rng.next_below(stride)).collect(),
        }
    }

    /// Build the fleet with stimuli through `horizon`: the contended
    /// MAC clusters burst every 5 ms (sender stagger 700 µs, under one
    /// word time, so hidden terminals collide and CSMA retries keep the
    /// channel busy); every sleeper is kicked once, at a phase spread
    /// over one period.
    pub fn build(&self, scheduler: Scheduler, shards: usize, horizon: SimDuration) -> NetworkSim {
        let (width, height) = (self.width, self.height);
        let mut sim = NetworkSim::new(12.0);
        sim.set_scheduler(scheduler);
        sim.set_shards(shards);
        sim.set_trace_mode(TraceMode::CountOnly);
        let mut mac_ids = Vec::new();
        let mut mac_slots = std::collections::HashSet::new();
        for c in 0..GRID_CLUSTERS {
            let row = c * height / GRID_CLUSTERS;
            for (i, prog) in self.mac.iter().enumerate() {
                if mac_slots.insert(row * width + i) {
                    let at = Position::new(i as f64 * 8.0, row as f64 * 8.0);
                    mac_ids.push((c, i, sim.add_node(prog, at)));
                }
            }
        }
        let filler = (width * height - mac_slots.len()) as u64;
        let ids = sim.add_nodes_from(
            &self.sleeper,
            CoreConfig::default(),
            (0..width * height)
                .filter(|slot| !mac_slots.contains(slot))
                .map(|slot| {
                    Position::new((slot % width) as f64 * 8.0, (slot / width) as f64 * 8.0)
                }),
        );
        let bursts = (horizon.as_ps() / SimDuration::from_ms(5).as_ps()).max(1);
        for burst in 0..bursts {
            for &(c, member, id) in &mac_ids {
                let us =
                    1_000 + burst * 5_000 + self.cluster_skew_us * c as u64 + 700 * member as u64;
                sim.schedule(
                    id,
                    SimTime::ZERO + SimDuration::from_us(us),
                    Stimulus::SensorIrq,
                );
            }
        }
        let period_ns = GRID_PERIOD_US * 1_000;
        for (i, id) in ids.into_iter().enumerate() {
            let ns = i as u64 * period_ns / filler + self.phase_jitter[i];
            sim.schedule(
                id,
                SimTime::ZERO + SimDuration::from_us(1_000) + SimDuration::from_ns(ns),
                Stimulus::SensorIrq,
            );
        }
        sim
    }
}

/// Per-node simulated statistics plus channel counters: what every
/// engine, scheduler and serving path must reproduce bit for bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    pub now_ps: u64,
    pub deliveries: u64,
    pub collisions: u64,
    /// Per node: instructions (or AVR active cycles), energy f64 bits,
    /// dispatches (0 on AVR motes, whose served status omits them).
    pub nodes: Vec<[u64; 3]>,
}

impl Fingerprint {
    pub fn of(sim: &NetworkSim) -> Fingerprint {
        let nodes = (1..=sim.node_count() as u32)
            .map(|n| {
                let node = sim.node(NodeId(n));
                match node.kind() {
                    NodeKind::Avr => {
                        let mote = node.avr().expect("AVR node has a mote");
                        [
                            mote.core().active_cycles(),
                            mote.active_energy().as_pj().to_bits(),
                            0,
                        ]
                    }
                    _ => {
                        let s = node.cpu().stats();
                        [
                            s.instructions,
                            s.energy.as_pj().to_bits(),
                            s.handlers_dispatched,
                        ]
                    }
                }
            })
            .collect();
        Fingerprint {
            now_ps: sim.now().as_ps(),
            deliveries: sim.channel().deliveries(),
            collisions: sim.channel().collisions(),
            nodes,
        }
    }

    pub fn digest(&self) -> u64 {
        let mut words = vec![self.now_ps, self.deliveries, self.collisions];
        words.extend(self.nodes.iter().flatten());
        crate::stats::digest(&words)
    }

    /// SNAP instructions across the fleet.
    pub fn instructions(sim: &NetworkSim) -> u64 {
        (1..=sim.node_count() as u32)
            .map(|n| sim.node(NodeId(n)))
            .filter(|node| node.kind() != NodeKind::Avr)
            .map(|node| node.cpu().stats().instructions)
            .sum()
    }

    /// Handler dispatches (wakes) across the fleet's SNAP nodes.
    pub fn dispatches(sim: &NetworkSim) -> u64 {
        (1..=sim.node_count() as u32)
            .map(|n| sim.node(NodeId(n)))
            .filter(|node| node.kind() != NodeKind::Avr)
            .map(|node| node.cpu().handlers_dispatched())
            .sum()
    }

    /// A short description of how `other` differs from `self`.
    pub fn diff(&self, other: &Fingerprint) -> String {
        let mut out = format!(
            "now_ps {} vs {}, deliveries {} vs {}, collisions {} vs {}",
            self.now_ps,
            other.now_ps,
            self.deliveries,
            other.deliveries,
            self.collisions,
            other.collisions
        );
        if self.nodes.len() != other.nodes.len() {
            out.push_str(&format!(
                ", {} vs {} nodes",
                self.nodes.len(),
                other.nodes.len()
            ));
        }
        let differing: Vec<usize> = (0..self.nodes.len().min(other.nodes.len()))
            .filter(|&i| self.nodes[i] != other.nodes[i])
            .collect();
        out.push_str(&format!(", {} nodes differ", differing.len()));
        for &i in differing.iter().take(3) {
            out.push_str(&format!(
                "\n    node {}: [instr, energy bits, dispatches] {:?} vs {:?}",
                i + 1,
                self.nodes[i],
                other.nodes[i]
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stratified_values_cover_every_stratum() {
        let mut rng = SplitMix64::new(7);
        let mut v = stratified(&mut rng, 16, 32, 96);
        v.sort_unstable();
        for (i, x) in v.iter().enumerate() {
            assert!(
                (32 + i as u64 * 6..32 + (i as u64 + 1) * 6).contains(x),
                "{v:?}"
            );
        }
    }
}
