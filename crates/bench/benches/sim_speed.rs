//! Criterion microbenchmarks of the simulator hot paths (how fast the
//! reproduction itself runs; not a paper figure), plus a regression
//! harness: `cargo bench --bench sim_speed -- --json` re-measures the
//! scenarios and writes `BENCH_sim_speed.json` at the repo root with
//! the speedup over the recorded pre-fast-path baseline.

use criterion::{criterion_group, Bencher, Criterion};
use dess::{SimDuration, SimTime};
use snap_apps::mac::{mac_program, send_on_irq_app, RX_DISPATCH_STUB};
use snap_apps::prelude::{install_handler, PRELUDE};
use snap_asm::{assemble_modules, Program};
use snap_core::{CoreConfig, Engine, Processor};
use snap_isa::{AluImmOp, AluOp, Instruction, Reg};
use snap_net::{NetworkSim, Position, Scheduler, Stimulus, TraceMode};
use snap_node::{BatteryConfig, NodeId, NodeKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Baseline timings measured on this tree immediately before the
/// fast-path changes (predecoded IMEM, a worker pool since removed,
/// cached neighbourhoods), release profile, same machine; the minimum
/// of six runs, so reported speedups are conservative. `--json`
/// reports current timings as a speedup over these.
const BASELINE_30K_US: f64 = 1_562.0;
const BASELINE_NET_US: f64 = 163_100.0;

/// Lockstep-scheduler timing of the sparse 256-node scenario, measured
/// on this tree with `--baseline` (release profile, same machine,
/// minimum of six runs). Everything except the scheduler is identical
/// — the same incremental topology cache, batched handler execution
/// and count-only trace — so the reported speedup is attributable to
/// the wake calendar alone. (With the pre-PR O(n³) topology build the
/// lockstep run was 809,160 µs; that part of the win is excluded.)
/// The sparse scenario is exactly the workload the wake calendar
/// exists for: hundreds of duty-cycled nodes, almost all asleep at
/// any instant.
const BASELINE_SPARSE_LOCKSTEP_US: f64 = 488_548.0;

fn core_loop_program() -> [Instruction; 5] {
    // A tight arithmetic loop: 3 instructions per iteration.
    [
        Instruction::AluImm {
            op: AluImmOp::Li,
            rd: Reg::R1,
            imm: 10_000,
        },
        Instruction::AluReg {
            op: AluOp::Add,
            rd: Reg::R2,
            rs: Reg::R1,
        },
        Instruction::AluImm {
            op: AluImmOp::Subi,
            rd: Reg::R1,
            imm: 1,
        },
        Instruction::Branch {
            cond: snap_isa::BranchCond::Nez,
            ra: Reg::R1,
            rb: Reg::R0,
            target: 2,
        },
        Instruction::Halt,
    ]
}

/// Simulated-workload size: (dynamic instructions, energy in pJ).
/// Deterministic per scenario — reported in the JSON so the bench
/// record carries the paper's energy units alongside wall time.
type Workload = (u64, f64);

fn run_core_loop(prog: &[Instruction]) -> Workload {
    let mut cpu = Processor::new(CoreConfig::default());
    cpu.load_program(prog).unwrap();
    cpu.run_to_halt(40_000).unwrap();
    let stats = cpu.stats();
    assert!(stats.instructions > 30_000);
    (stats.instructions, stats.energy.as_pj())
}

/// Sum every node's executed instructions and consumed energy.
fn network_workload(sim: &NetworkSim) -> Workload {
    let mut instructions = 0;
    let mut energy_pj = 0.0;
    for id in sim.topology().nodes() {
        let stats = sim.node(id).cpu().stats();
        instructions += stats.instructions;
        energy_pj += stats.energy.as_pj();
    }
    (instructions, energy_pj)
}

/// A 25-node CSMA mesh on a 5x5 grid: every node runs the MAC with a
/// send-on-IRQ app targeting its successor, IRQs staggered so traffic
/// overlaps. `Auto` runs the 25 nodes as one shard, so this times the
/// wake calendar, the collision checks and delivery range scans.
fn run_net_mesh() -> Workload {
    let mut sim = NetworkSim::new(12.0);
    for i in 0u8..25 {
        let dst = if i == 24 { 1 } else { i + 2 };
        let app = format!("{}{}", send_on_irq_app(dst), RX_DISPATCH_STUB);
        let extra = install_handler("EV_IRQ", "app_send_irq");
        let program = mac_program(i + 1, &extra, &app).expect("assembles");
        let (row, col) = (f64::from(i / 5), f64::from(i % 5));
        sim.add_node(&program, Position::new(col * 10.0, row * 10.0));
    }
    let ids: Vec<_> = sim.topology().nodes().collect();
    for (i, id) in ids.into_iter().enumerate() {
        // ~833 µs word time: a 1.5 ms stagger lets early packets land
        // cleanly while later ones overlap and collide — both delivery
        // outcomes are exercised.
        let at = SimTime::ZERO + SimDuration::from_us(1_000 + 1_500 * i as u64);
        sim.schedule(id, at, Stimulus::SensorIrq);
    }
    sim.run_until(SimTime::ZERO + SimDuration::from_ms(60))
        .expect("network runs");
    assert!(sim.channel().deliveries() > 0, "mesh must carry traffic");
    network_workload(&sim)
}

/// Nodes in the sparse duty-cycled scenario.
const SPARSE_NODES: usize = 256;
/// MAC nodes within those: a small cluster that keeps real radio
/// traffic (CSMA, deliveries, collisions) in the mix.
const SPARSE_MAC_NODES: usize = 6;
/// Simulated span. Long on purpose: the point of the scenario is vast
/// stretches of near-total sleep.
const SPARSE_SIM_MS: u64 = 500;

/// A duty-cycled sensing node: a periodic timer handler that counts
/// the tick and re-arms. Periods and initial phases vary per node so
/// wake-ups spread out instead of beating in sync — at any instant a
/// handful of the 256 nodes are due and the rest are asleep.
fn sparse_timer_program(period_ticks: u16, phase_ticks: u16) -> Program {
    let app = format!(
        r"
.data
ticks: .word 0

.text
duty_timer:
    lw      r2, ticks(r0)
    addi    r2, 1
    sw      r2, ticks(r0)
    li      r1, 0
    schedhi r1, r0
    li      r2, {period_ticks}
    schedlo r1, r2
    done
"
    );
    let mut boot = String::from("boot:\n");
    boot.push_str(&install_handler("EV_TIMER0", "duty_timer"));
    boot.push_str(&format!(
        "    li      r1, 0\n    schedhi r1, r0\n    li      r2, {phase_ticks}\n    schedlo r1, r2\n    done\n"
    ));
    assemble_modules(&[("prelude.s", PRELUDE), ("boot.s", &boot), ("duty.s", &app)])
        .expect("sparse program assembles")
}

/// Pre-assembled programs for the sparse scenario (assembly is setup,
/// not simulation — it stays outside the measured loop).
fn sparse_programs() -> Vec<Program> {
    let mut programs = Vec::with_capacity(SPARSE_NODES);
    for i in 0..SPARSE_MAC_NODES {
        let dst = if i + 1 == SPARSE_MAC_NODES { 1 } else { i + 2 } as u8;
        let app = format!("{}{}", send_on_irq_app(dst), RX_DISPATCH_STUB);
        let extra = install_handler("EV_IRQ", "app_send_irq");
        programs.push(mac_program(i as u8 + 1, &extra, &app).expect("assembles"));
    }
    for i in 0..SPARSE_NODES - SPARSE_MAC_NODES {
        let period = 2_000 + (i % 17) as u16 * 311; // 2.0 .. 7.0 ms
        let phase = 100 + (i % 97) as u16 * 53; // de-synchronized starts
        programs.push(sparse_timer_program(period, phase));
    }
    programs
}

/// 256 nodes, ~98% of them duty-cycled sleepers: a 6-node MAC cluster
/// exchanges packets every ~50 ms while 250 timer nodes (parked out of
/// radio range) wake for a few instructions every few milliseconds.
/// Under the lockstep scheduler every ~20 µs window advances all 256
/// nodes; under the wake calendar each epoch touches only the nodes
/// actually due.
fn run_net_sparse(programs: &[Program], scheduler: Scheduler) -> Workload {
    let mut sim = NetworkSim::new(12.0);
    sim.set_scheduler(scheduler);
    sim.set_trace_mode(TraceMode::CountOnly);
    for (i, program) in programs.iter().enumerate() {
        let pos = if i < SPARSE_MAC_NODES {
            // The MAC cluster: a tight line, everyone in range.
            Position::new(i as f64 * 8.0, 0.0)
        } else {
            // Sleepers: far from the cluster and from each other.
            Position::new(1_000.0 + i as f64 * 100.0, 0.0)
        };
        sim.add_node(program, pos);
    }
    let ids: Vec<_> = sim.topology().nodes().take(SPARSE_MAC_NODES).collect();
    for burst in 0..(SPARSE_SIM_MS / 50) {
        for (i, id) in ids.iter().enumerate() {
            let at = SimTime::ZERO + SimDuration::from_us(1_000 + burst * 50_000 + 900 * i as u64);
            sim.schedule(*id, at, Stimulus::SensorIrq);
        }
    }
    sim.run_until(SimTime::ZERO + SimDuration::from_ms(SPARSE_SIM_MS))
        .expect("network runs");
    assert!(sim.channel().deliveries() > 0, "cluster must carry traffic");
    assert!(
        sim.trace().recorded() > 0,
        "count-only trace must still count"
    );
    network_workload(&sim)
}

/// Nodes in the compute-heavy scenario. `Auto` runs them as one shard
/// on the calling thread, so the row measures the translation engine,
/// nothing else.
const COMPUTE_NODES: usize = 6;
/// Simulated span of the compute-heavy scenario.
const COMPUTE_SIM_MS: u64 = 20;

/// A compute-bound sensing node: every 500 µs the timer handler runs a
/// 64-iteration mixing loop over its sample history before re-arming —
/// a long, hot, perfectly fusable back edge, the workload the tiered
/// execution engine exists for. No radio; nodes are parked out of
/// range of each other.
fn compute_heavy_program() -> Program {
    let app = r"
.data
ticks: .word 0
mix:   .word 0

.text
crunch_timer:
    lw      r2, ticks(r0)
    addi    r2, 1
    sw      r2, ticks(r0)
    lw      r3, mix(r0)
    li      r1, 64
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
    li      r2, 500
    schedlo r1, r2
    done
";
    let mut boot = String::from("boot:\n");
    boot.push_str(&install_handler("EV_TIMER0", "crunch_timer"));
    boot.push_str(
        "    li      r1, 0\n    schedhi r1, r0\n    li      r2, 500\n    schedlo r1, r2\n    done\n",
    );
    assemble_modules(&[("prelude.s", PRELUDE), ("boot.s", &boot), ("crunch.s", app)])
        .expect("compute-heavy program assembles")
}

fn run_compute_heavy(program: &Program, engine: Engine) -> Workload {
    let mut sim = NetworkSim::new(10.0);
    sim.set_trace_mode(TraceMode::CountOnly);
    let core = CoreConfig {
        engine,
        ..CoreConfig::default()
    };
    sim.add_nodes_from(
        program,
        core,
        (0..COMPUTE_NODES).map(|i| Position::new(i as f64 * 100.0, 0.0)),
    );
    sim.run_until(SimTime::ZERO + SimDuration::from_ms(COMPUTE_SIM_MS))
        .expect("compute-heavy runs");
    network_workload(&sim)
}

/// Duty-cycle period for grid sleepers, in timer ticks (µs).
const GRID_PERIOD_TICKS: u16 = 2_000;
/// MAC nodes per radio cluster in the grid scenarios (strung along a
/// grid row, 8 m apart — with spatial sharding a cluster spans several
/// cells, so its deliveries cross shard boundaries).
const GRID_MAC_NODES: usize = 6;
/// Independent MAC clusters, spread across the grid on evenly spaced
/// rows. Clusters sit far outside each other's radio range, so all of
/// them reuse the same six MAC programs (addresses only have to be
/// unique within earshot) and their traffic stays cluster-local — but
/// a single shared calendar still pays a global scheduling boundary
/// for every cluster's channel events.
const GRID_CLUSTERS: usize = 10;
/// Shard count for the explicitly sharded grid runs (`net_grid_1m`
/// and the probes): the count `Scheduler::Auto` picks at 100k nodes.
/// Epochs run one shard after another, so the count moves host time
/// only through calendar sizes and barriers.
const GRID_SHARDS: usize = 64;
/// Grid scenario sizes: (width, height, simulated ms).
const GRID_10K: (usize, usize, u64) = (100, 100, 10);
const GRID_100K: (usize, usize, u64) = (400, 250, 10);
const GRID_1M: (usize, usize, u64) = (1_000, 1_000, 10);

/// The shared grid sleeper. Every filler node runs this same image —
/// program memory and the decode cache stay copy-on-write across the
/// whole fleet — and per-node phase comes from a staggered one-shot
/// `SensorIrq` that starts the periodic timer, so a million sleepers
/// wake at a million distinct instants without a million programs.
///
/// The timer handler is a realistic sensing tick, not a bare re-arm:
/// count the tick, derive a synthetic sample, run it through an EWMA
/// filter and a running accumulator, then re-arm. Handler length is
/// what separates the schedulers — a single shared calendar must chop
/// every running burst at each other node's wake instant (~one window
/// round-trip per instruction once wakes are denser than the
/// instruction time), while shard epochs run each burst to completion
/// in one call.
fn grid_sleeper_program() -> Program {
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
; 4-tap moving average over the filtered history
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
    li      r2, {GRID_PERIOD_TICKS}
    schedlo r1, r2
    done

; staggered kick: the scheduled SensorIrq lands here once and starts
; the periodic timer at this node's own phase
kick_timer:
    li      r1, 0
    schedhi r1, r0
    li      r2, {GRID_PERIOD_TICKS}
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

/// Pre-assembled programs for the grid scenarios.
struct GridPrograms {
    mac: Vec<Program>,
    sleeper: Program,
}

fn grid_programs() -> GridPrograms {
    let mut mac = Vec::with_capacity(GRID_MAC_NODES);
    for i in 0..GRID_MAC_NODES {
        let dst = if i + 1 == GRID_MAC_NODES { 1 } else { i + 2 } as u8;
        let app = format!("{}{}", send_on_irq_app(dst), RX_DISPATCH_STUB);
        let extra = install_handler("EV_IRQ", "app_send_irq");
        mac.push(mac_program(i as u8 + 1, &extra, &app).expect("assembles"));
    }
    GridPrograms {
        mac,
        sleeper: grid_sleeper_program(),
    }
}

/// Build one W×H grid fleet: `GRID_CLUSTERS` 6-node MAC clusters on
/// evenly spaced rows plus duty-cycled sleepers on the remaining grid
/// slots (8 m pitch), each sleeper's periodic timer started by a kick
/// IRQ staggered across one full period — so wake instants are spread
/// ~uniformly instead of beating in sync.
fn build_grid(
    (width, height, sim_ms): (usize, usize, u64),
    scheduler: Scheduler,
    shards: usize,
    programs: &GridPrograms,
) -> NetworkSim {
    let mut sim = NetworkSim::new(12.0);
    sim.set_scheduler(scheduler);
    sim.set_shards(shards);
    sim.set_trace_mode(TraceMode::CountOnly);
    let cluster_rows: Vec<usize> = (0..GRID_CLUSTERS)
        .map(|c| c * height / GRID_CLUSTERS)
        .collect();
    let mut mac_ids = Vec::with_capacity(GRID_CLUSTERS * GRID_MAC_NODES);
    let mut mac_slots = std::collections::HashSet::new();
    for &row in &cluster_rows {
        for (i, prog) in programs.mac.iter().enumerate() {
            mac_slots.insert(row * width + i);
            mac_ids.push(sim.add_node(prog, Position::new(i as f64 * 8.0, row as f64 * 8.0)));
        }
    }
    let filler = width * height - mac_slots.len();
    let ids = sim.add_nodes_from(
        &programs.sleeper,
        CoreConfig::default(),
        (0..width * height)
            .filter(move |slot| !mac_slots.contains(slot))
            .map(move |slot| {
                Position::new((slot % width) as f64 * 8.0, (slot / width) as f64 * 8.0)
            }),
    );
    // Every cluster bursts every 5 ms for the whole run. The 700 µs
    // sender stagger is deliberately less than one word time (833 µs):
    // each ring has hidden terminals (node 3 cannot hear node 1), so
    // bursts collide and CSMA retries keep the channel churning for
    // most of the run — the contended regime where a single shared
    // calendar pays for every channel event fleet-wide. Retries need
    // a few word times to drain, so horizons shorter than ~10 ms can
    // end before any word lands. The 137 µs per-cluster skew keeps the
    // clusters' (otherwise identical, deterministic) retry schedules
    // from coinciding: ten clusters mean ten distinct sets of channel
    // instants, as they would from independent real deployments.
    for burst in 0..sim_ms.div_ceil(5) {
        for (i, id) in mac_ids.iter().enumerate() {
            let (cluster, member) = (i / GRID_MAC_NODES, (i % GRID_MAC_NODES) as u64);
            let at = SimTime::ZERO
                + SimDuration::from_us(1_000 + burst * 5_000 + 137 * cluster as u64 + 700 * member);
            sim.schedule(*id, at, Stimulus::SensorIrq);
        }
    }
    // Staggered kicks: phases spread across exactly one period.
    let period_ns = u64::from(GRID_PERIOD_TICKS) * 1_000;
    for (i, id) in ids.into_iter().enumerate() {
        let phase = SimDuration::from_ns(i as u64 * period_ns / filler as u64);
        sim.schedule(
            id,
            SimTime::ZERO + SimDuration::from_us(1_000) + phase,
            Stimulus::SensorIrq,
        );
    }
    sim
}

/// Live heap bytes: everything allocated and not yet freed, counted
/// by [`CountingAlloc`].
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting live heap bytes. The grid rows' memory
/// column reads this rather than RSS, which misses whatever the
/// allocator reuses from heap an earlier scenario freed, and whatever
/// it returns to the OS.
struct CountingAlloc;

// SAFETY: every call goes straight to `System`; the counter only
// observes the sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            LIVE_BYTES.fetch_add(new_size, Ordering::Relaxed);
            LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        new
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Hand-timed grid measurement. The fleet build (node cloning, kick
/// scheduling) is setup and stays outside the timed region; only
/// `run_until` is measured. When `reps > 1` an extra untimed warm-up
/// run goes first and is excluded from the stats — the first run in a
/// fresh process pays one-off costs (allocator arena growth, page
/// faults for the copy-on-write node clones) that would otherwise
/// pollute the mean. The `bytes_per_node` memory column is the heap
/// the first fleet holds after its run, counted from before its build:
/// by then every sleeper has written its data words and owns the pages
/// it copied.
struct GridTiming {
    min_us: f64,
    median_us: f64,
    mean_us: f64,
    reps: u64,
    work: Workload,
    bytes_per_node: u64,
    deliveries: u64,
    collisions: u64,
}

/// `slice`, when given, runs the horizon in `run_until` calls of that
/// simulated length instead of one call.
fn time_grid(
    size: (usize, usize, u64),
    (scheduler, shards): (Scheduler, usize),
    slice: Option<SimDuration>,
    reps: u64,
    programs: &GridPrograms,
) -> GridTiming {
    let mut times = Vec::with_capacity(reps as usize);
    let mut work = (0u64, 0.0f64);
    let mut bytes_per_node = 0u64;
    let (mut deliveries, mut collisions) = (0u64, 0u64);
    let warmup = u64::from(reps > 1);
    for rep in 0..reps.max(1) + warmup {
        let before = LIVE_BYTES.load(Ordering::Relaxed);
        let mut sim = build_grid(size, scheduler, shards, programs);
        let horizon = SimTime::ZERO + SimDuration::from_ms(size.2);
        let start = Instant::now();
        let step = slice.unwrap_or(horizon - SimTime::ZERO);
        while sim.now() < horizon {
            sim.run_until((sim.now() + step).min(horizon))
                .expect("grid runs");
        }
        if rep >= warmup {
            times.push(start.elapsed().as_secs_f64() * 1e6);
        }
        if rep == 0 {
            let live = LIVE_BYTES.load(Ordering::Relaxed).saturating_sub(before);
            bytes_per_node = (live / (size.0 * size.1)) as u64;
        }
        deliveries = sim.channel().deliveries();
        collisions = sim.channel().collisions();
        work = network_workload(&sim);
    }
    times.sort_by(f64::total_cmp);
    GridTiming {
        min_us: times[0],
        median_us: times[times.len() / 2],
        mean_us: times.iter().sum::<f64>() / times.len() as f64,
        reps: times.len() as u64,
        work,
        bytes_per_node,
        deliveries,
        collisions,
    }
}

fn bench_core(c: &mut Criterion) {
    let prog = core_loop_program();
    c.bench_function("simulate_30k_instructions", |b| {
        b.iter(|| run_core_loop(&prog))
    });
    c.bench_function("assemble_mac_aodv", |b| {
        b.iter(|| snap_apps::aodv::relay_program(3, &[(9, 2)]).unwrap())
    });
}

fn bench_net(c: &mut Criterion) {
    c.bench_function("net_speed_25_node_mesh", |b| b.iter(run_net_mesh));
    let programs = sparse_programs();
    c.bench_function("net_sparse_256", |b| {
        b.iter(|| run_net_sparse(&programs, Scheduler::EventDriven))
    });
    let compute = compute_heavy_program();
    c.bench_function("compute_heavy", |b| {
        b.iter(|| run_compute_heavy(&compute, Engine::Fused))
    });
}

criterion_group!(benches, bench_core, bench_net);

/// One scenario row of the hand-rolled JSON report.
struct Entry {
    name: &'static str,
    baseline_us: f64,
    min_us: f64,
    median_us: f64,
    mean_us: f64,
    iterations: u64,
    work: Workload,
    /// Live heap per node after the first run (grid scenarios only).
    bytes_per_node: Option<u64>,
    /// Extra scenario-specific JSON fields, pre-rendered as
    /// `"key": value` pairs (serve throughput columns).
    extra: Vec<(&'static str, f64)>,
    /// Free-text caveat (e.g. baseline provenance at extreme scale).
    note: Option<&'static str>,
}

impl Entry {
    fn to_json(&self) -> String {
        let (instructions, energy_pj) = self.work;
        let mut s = format!(
            concat!(
                "    {{\n",
                "      \"name\": \"{}\",\n",
                "      \"baseline_us\": {:.1},\n",
                "      \"current_us\": {:.1},\n",
                "      \"min_us\": {:.1},\n",
                "      \"median_us\": {:.1},\n",
                "      \"speedup\": {:.2},\n",
                "      \"iterations\": {},\n",
                "      \"instructions\": {},\n",
                "      \"energy_pj\": {:.1},\n",
                "      \"pj_per_instruction\": {:.2}"
            ),
            self.name,
            self.baseline_us,
            self.mean_us,
            self.min_us,
            self.median_us,
            self.baseline_us / self.mean_us,
            self.iterations,
            instructions,
            energy_pj,
            energy_pj / instructions as f64,
        );
        if let Some(bytes) = self.bytes_per_node {
            s.push_str(&format!(",\n      \"bytes_per_node\": {bytes}"));
        }
        for (key, value) in &self.extra {
            s.push_str(&format!(",\n      \"{key}\": {value:.1}"));
        }
        if let Some(note) = self.note {
            s.push_str(&format!(",\n      \"note\": \"{note}\""));
        }
        s.push_str("\n    }");
        s
    }
}

fn summary_entry(
    name: &'static str,
    baseline_us: f64,
    s: criterion::Summary,
    work: Workload,
) -> Entry {
    Entry {
        name,
        baseline_us,
        min_us: s.min.as_secs_f64() * 1e6,
        median_us: s.median.as_secs_f64() * 1e6,
        mean_us: s.mean.as_secs_f64() * 1e6,
        iterations: s.iterations,
        work,
        bytes_per_node: None,
        extra: Vec::new(),
        note: None,
    }
}

/// Basic timing statistics over `reps` hand-timed runs of `f`, with
/// one untimed warm-up excluded (as in [`time_grid`]).
struct Timing {
    min_us: f64,
    median_us: f64,
    mean_us: f64,
    reps: u64,
    work: Workload,
}

fn time_runs(reps: u64, mut f: impl FnMut() -> Workload) -> Timing {
    let mut times = Vec::with_capacity(reps as usize);
    let mut work = (0u64, 0.0f64);
    let warmup = u64::from(reps > 1);
    for rep in 0..reps.max(1) + warmup {
        let start = Instant::now();
        work = f();
        if rep >= warmup {
            times.push(start.elapsed().as_secs_f64() * 1e6);
        }
    }
    times.sort_by(f64::total_cmp);
    Timing {
        min_us: times[0],
        median_us: times[times.len() / 2],
        mean_us: times.iter().sum::<f64>() / times.len() as f64,
        reps: times.len() as u64,
        work,
    }
}

/// Measure the compute-heavy scenario: the default fused engine
/// against the same tree under the pure interpreter. Identical
/// scheduler, single thread, bit-identical results — the reported
/// speedup belongs to the translation engine alone.
fn compute_entry(reps: u64) -> Entry {
    let program = compute_heavy_program();
    let fused = time_runs(reps, || run_compute_heavy(&program, Engine::Fused));
    let interp = time_runs(reps, || run_compute_heavy(&program, Engine::Interp));
    assert_eq!(
        fused.work.0, interp.work.0,
        "engines disagree on instruction count"
    );
    assert_eq!(
        fused.work.1.to_bits(),
        interp.work.1.to_bits(),
        "engines disagree on energy bits"
    );
    Entry {
        name: "compute_heavy",
        baseline_us: interp.min_us,
        min_us: fused.min_us,
        median_us: fused.median_us,
        mean_us: fused.mean_us,
        iterations: fused.reps,
        work: fused.work,
        bytes_per_node: None,
        extra: Vec::new(),
        note: Some("baseline = same tree under Engine::Interp; fused-engine speedup"),
    }
}

/// Measure one grid scenario: the auto scheduler — the shard count
/// `run_until` picks for this fleet size — (`reps` runs) against a
/// single one-shard run (`Scheduler::EventDriven`) of the same tree as
/// baseline. A single baseline rep is conservative — it runs warm,
/// after the measured reps have paged everything in. Below the auto
/// threshold both sides run one shard, so the row honestly reports
/// ~1.0x (see DESIGN.md §6d); the multi-shard win only appears at the
/// scales where auto splits the fleet.
fn grid_entry(
    name: &'static str,
    size: (usize, usize, u64),
    reps: u64,
    programs: &GridPrograms,
    note: Option<&'static str>,
) -> Entry {
    let auto = time_grid(size, (Scheduler::Auto, GRID_SHARDS), None, reps, programs);
    let one_shard = time_grid(size, (Scheduler::EventDriven, 1), None, 1, programs);
    assert!(auto.deliveries > 0, "cluster must carry traffic");
    assert_eq!(
        (auto.deliveries, auto.collisions),
        (one_shard.deliveries, one_shard.collisions),
        "schedulers disagree on channel counters"
    );
    Entry {
        name,
        baseline_us: one_shard.min_us,
        min_us: auto.min_us,
        median_us: auto.median_us,
        mean_us: auto.mean_us,
        iterations: auto.reps,
        work: auto.work,
        bytes_per_node: Some(auto.bytes_per_node),
        extra: Vec::new(),
        note,
    }
}

/// The simulated length of one `run_until` call in the sliced grid
/// row: snapbench's and snap-serve's slice.
const GRID_SLICE: SimDuration = SimDuration::from_ms(1);

/// The 10k grid of `one_call` again, run to the same horizon in
/// [`GRID_SLICE`] calls, the way snapbench and snap-serve drive a
/// fleet, with the one-call run as baseline: the ratio is what the
/// calls themselves cost. The work must match the one-call row's.
fn grid_sliced_entry(one_call: &Entry, reps: u64, programs: &GridPrograms) -> Entry {
    let sliced = time_grid(
        GRID_10K,
        (Scheduler::Auto, GRID_SHARDS),
        Some(GRID_SLICE),
        reps,
        programs,
    );
    assert_eq!(
        sliced.work.0, one_call.work.0,
        "slicing changed the instruction count"
    );
    assert_eq!(
        sliced.work.1.to_bits(),
        one_call.work.1.to_bits(),
        "slicing changed the energy bits"
    );
    Entry {
        name: "net_grid_10k_sliced",
        baseline_us: one_call.min_us,
        min_us: sliced.min_us,
        median_us: sliced.median_us,
        mean_us: sliced.mean_us,
        iterations: sliced.reps,
        work: sliced.work,
        bytes_per_node: Some(sliced.bytes_per_node),
        extra: Vec::new(),
        note: Some("baseline = net_grid_10k in one run_until call; 1 ms slices, so <1.0x is what the calls' clock syncs cost"),
    }
}

/// SNAP nodes in the fleet-lifetime scenario (a MAC ring bursting
/// every 20 ms — a data-monitoring duty cycle).
const FLEET_SNAP_NODES: u8 = 4;
/// ATmega beacon motes riding the same air, beaconing every ~20 ms.
const FLEET_AVR_NODES: u8 = 4;
/// Observed simulated span the lifetime projection extrapolates from.
const FLEET_SIM_MS: u64 = 200;

/// The paper's bottom line as a simulation: a mixed SNAP + ATmega
/// fleet on identical 620 mAh coin cells, running comparable ~20 ms
/// duty cycles. Returns the workload plus the mean projected node
/// lifetime (seconds) per platform, extrapolated by the battery model
/// from each node's measured consumption over the simulated span
/// (`BatteryConfig::projected_lifetime_s`; see docs/FLEETS.md).
fn run_fleet_lifetime() -> (Workload, f64, f64) {
    let mut sim = NetworkSim::new(12.0);
    sim.set_trace_mode(TraceMode::CountOnly);
    for i in 0..FLEET_SNAP_NODES {
        let dst = if i + 1 == FLEET_SNAP_NODES { 1 } else { i + 2 };
        let extra = install_handler("EV_IRQ", "app_send_irq");
        let app = format!("{}{}", send_on_irq_app(dst), RX_DISPATCH_STUB);
        let program = mac_program(i + 1, &extra, &app).expect("assembles");
        let id = sim.add_node(&program, Position::new(f64::from(i) * 8.0, 0.0));
        sim.set_battery(id, Some(BatteryConfig::coin_cell_snap()));
        // A send burst every 20 ms for the whole span; the 900 µs
        // member stagger clears each ~833 µs word time.
        for burst in 0..FLEET_SIM_MS / 20 {
            let at = 1_000 + burst * 20_000 + 900 * u64::from(i);
            sim.schedule(
                id,
                SimTime::ZERO + SimDuration::from_us(at),
                Stimulus::SensorIrq,
            );
        }
    }
    for i in 0..FLEET_AVR_NODES {
        // Staggered periods so the motes do not beacon in lockstep.
        let (avr, _) = snap_node::atmega::tinyos::beacon_system(i + 1, 20 + u16::from(i))
            .expect("beacon assembles");
        let id = sim.add_avr_node(avr, Position::new(f64::from(i) * 8.0, -8.0));
        sim.set_battery(id, Some(BatteryConfig::coin_cell_avr()));
    }
    sim.run_until(SimTime::ZERO + SimDuration::from_ms(FLEET_SIM_MS))
        .expect("fleet runs");
    assert!(sim.channel().deliveries() > 0, "fleet must carry traffic");

    let elapsed = SimDuration::from_ms(FLEET_SIM_MS);
    let mut work = (0u64, 0.0f64);
    let (mut snap_sum, mut snap_n) = (0.0f64, 0u32);
    let (mut avr_sum, mut avr_n) = (0.0f64, 0u32);
    for n in 1..=sim.node_count() as u32 {
        let node = sim.node(NodeId(n));
        match node.kind() {
            NodeKind::Snap | NodeKind::Gateway => {
                let stats = node.cpu().stats();
                work.0 += stats.instructions;
                work.1 += stats.energy.as_pj();
            }
            NodeKind::Avr => {
                let mote = node.avr().expect("avr node");
                work.1 += mote.active_energy().as_pj();
            }
        }
        let (Some(battery), Some(consumed)) = (node.battery(), node.battery_consumed()) else {
            continue;
        };
        let life = battery
            .projected_lifetime_s(consumed, elapsed)
            .expect("nonzero consumption over a nonzero span");
        match node.kind() {
            NodeKind::Avr => {
                avr_sum += life;
                avr_n += 1;
            }
            _ => {
                snap_sum += life;
                snap_n += 1;
            }
        }
    }
    let snap_life = snap_sum / f64::from(snap_n);
    let avr_life = avr_sum / f64::from(avr_n);
    (work, snap_life, avr_life)
}

/// The `fleet_lifetime` report row: wall time of the mixed-fleet run
/// (speedup vs itself — the row exists for the lifetime columns) plus
/// the per-platform projections and their ratio. The paper's Table 2
/// direction — the SNAP sleep floor is ~nW against the mote's ~75 µW —
/// must come out of the simulation, not be asserted into it: the row
/// is only recorded if SNAP outlives the mote by well over an order of
/// magnitude.
fn fleet_lifetime_entry(reps: u64) -> Entry {
    let (mut snap_life, mut avr_life) = (0.0f64, 0.0f64);
    let timing = time_runs(reps, || {
        let (work, s, a) = run_fleet_lifetime();
        snap_life = s;
        avr_life = a;
        work
    });
    let ratio = snap_life / avr_life;
    assert!(
        ratio > 10.0,
        "SNAP must outlive the ATmega mote decisively (paper Table 2); \
         got snap {snap_life:.0} s vs avr {avr_life:.0} s"
    );
    Entry {
        name: "fleet_lifetime",
        baseline_us: timing.mean_us,
        min_us: timing.min_us,
        median_us: timing.median_us,
        mean_us: timing.mean_us,
        iterations: timing.reps,
        work: timing.work,
        bytes_per_node: None,
        extra: vec![
            ("snap_lifetime_s", snap_life),
            ("avr_lifetime_s", avr_life),
            ("lifetime_ratio", ratio),
        ],
        note: Some(
            "mean projected node lifetime per platform on identical 620 mAh coin cells \
             (duty-cycle extrapolation; instructions column counts SNAP cores only); \
             speedup vs itself",
        ),
    }
}

/// Concurrent tenants in the serve-throughput scenario.
const SERVE_TENANTS: usize = 8;
/// Simulated span each tenant requests: long enough that slice and
/// HTTP overhead amortize and the concurrency win is what's measured.
const SERVE_RUN_TO_US: u64 = 400_000;

/// The scenario tenant `i` submits: a 3-node MAC ring under a
/// per-tenant fade seed plus four periodic blink nodes, with a sensor
/// IRQ kicking a MAC send every 20 ms — sustained traffic for the
/// whole simulated span, so the cost scales with `run_to_us` rather
/// than quiescing after the kick-off. The schedule must clear the
/// ~4.3 ms a 5-word packet spends on the air (plus CSMA backoff) after
/// the kick-off IRQ and after each send; a tighter schedule faults the
/// sender with `RadioBusy` (an IRQ landing mid-transmission), which is
/// program error, not load.
fn tenant_scenario(i: usize) -> String {
    let mut irqs = String::new();
    for node in 1..=3u64 {
        let mut at = 7_000 + 700 * (node - 1);
        while at < SERVE_RUN_TO_US {
            if !irqs.is_empty() {
                irqs.push(',');
            }
            irqs.push_str(&format!(r#"{{"node":{node},"at_us":{at}}}"#));
            at += 20_000;
        }
    }
    format!(
        concat!(
            r#"{{"name":"tenant-{}","mac_nodes":3,"blink_nodes":4,"#,
            r#""loss":0.1,"loss_seed":{},"engine":"fused","scheduler":"event","#,
            r#""stagger_us":700,"irqs":[{}],"run_to_us":{},"slice_us":2000}}"#
        ),
        i,
        40 + i,
        irqs,
        SERVE_RUN_TO_US
    )
}

/// One-shot HTTP/1.1 request against the snap-serve loopback listener
/// (the server closes every connection, so EOF delimits the response).
fn http_request(addr: std::net::SocketAddr, method: &str, path: &str, body: &[u8]) -> String {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect to snap-serve");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8_lossy(&raw);
    let (head, body) = text.split_once("\r\n\r\n").expect("header terminator");
    assert!(
        head.split_whitespace().nth(1) == Some("200"),
        "{method} {path}: {head}\n{body}"
    );
    body.to_string()
}

/// One serve round: start a server, have every tenant submit its
/// scenario over TCP and poll its status until the sim completes.
/// Returns the round's wall time, every status-query latency observed,
/// and the summed workload the tenants report back.
fn run_serve_round() -> (f64, Vec<f64>, Workload) {
    let server = std::sync::Arc::new(snap_serve::SimServer::new());
    let mut handle = snap_serve::serve(std::sync::Arc::clone(&server), "127.0.0.1:0")
        .expect("bind snap-serve on loopback");
    let addr = handle.addr();
    let start = Instant::now();
    let tenants: Vec<_> = (0..SERVE_TENANTS)
        .map(|i| {
            std::thread::spawn(move || {
                let body = tenant_scenario(i);
                let reply = http_request(addr, "POST", "/sims", body.as_bytes());
                let v = snap_telemetry::parse(&reply).expect("submit reply json");
                let id = v.get("id").and_then(|x| x.as_i64()).expect("sim id");
                let mut latencies = Vec::new();
                loop {
                    let t0 = Instant::now();
                    let status = http_request(addr, "GET", &format!("/sims/{id}"), b"");
                    latencies.push(t0.elapsed().as_secs_f64() * 1e6);
                    let v = snap_telemetry::parse(&status).expect("status json");
                    let state = v.get("state").and_then(|s| s.as_str().map(String::from));
                    match state.as_deref() {
                        Some("done") => {
                            let mut instructions = 0u64;
                            let mut energy_pj = 0.0f64;
                            for node in v.get("per_node").and_then(|n| n.elements()).unwrap() {
                                instructions +=
                                    node.get("instructions").unwrap().as_i64().unwrap() as u64;
                                energy_pj += node.get("energy_pj").unwrap().as_f64().unwrap();
                            }
                            return (latencies, (instructions, energy_pj));
                        }
                        Some("faulted") => panic!("tenant {i} faulted: {status}"),
                        _ => std::thread::sleep(Duration::from_micros(100)),
                    }
                }
            })
        })
        .collect();
    let mut latencies = Vec::new();
    let mut work = (0u64, 0.0f64);
    for t in tenants {
        let (lat, (instr, pj)) = t.join().expect("tenant thread");
        latencies.extend(lat);
        work.0 += instr;
        work.1 += pj;
    }
    let wall_us = start.elapsed().as_secs_f64() * 1e6;
    handle.shutdown();
    (wall_us, latencies, work)
}

/// The same tenant scenarios run directly in-process, one after the
/// other on one thread — the no-server baseline.
fn run_serve_direct() -> Workload {
    let mut work = (0u64, 0.0f64);
    for i in 0..SERVE_TENANTS {
        let s = snap_serve::parse_scenario(&tenant_scenario(i)).expect("tenant scenario parses");
        let mut sim = snap_serve::scenario::build(&s).expect("tenant scenario builds");
        sim.run_until(SimTime::ZERO + SimDuration::from_us(SERVE_RUN_TO_US))
            .expect("tenant scenario runs");
        let (instr, pj) = network_workload(&sim);
        work.0 += instr;
        work.1 += pj;
    }
    work
}

/// Measure netsim-as-a-service under `SERVE_TENANTS` concurrent
/// tenants over real loopback TCP: wall time per round (min/median),
/// sims/sec, and p99 status-query latency under load. Baseline is the
/// identical scenarios run directly in-process on one thread, so the
/// speedup column is the server's concurrency win net of all HTTP,
/// slicing and locking overhead — and the instruction counts must
/// match exactly (the service must be simulation-invisible).
fn serve_entry(reps: u64) -> Entry {
    let direct = time_runs(reps, run_serve_direct);
    let mut walls = Vec::new();
    let mut latencies = Vec::new();
    let mut work = (0u64, 0.0f64);
    let warmup = u64::from(reps > 1);
    for rep in 0..reps.max(1) + warmup {
        let (wall_us, lat, w) = run_serve_round();
        if rep >= warmup {
            walls.push(wall_us);
            latencies.extend(lat);
        }
        work = w;
    }
    assert_eq!(
        work.0, direct.work.0,
        "served tenants disagree with direct runs on instruction count"
    );
    walls.sort_by(f64::total_cmp);
    latencies.sort_by(f64::total_cmp);
    let median_us = walls[walls.len() / 2];
    let p99_us = latencies[(latencies.len() * 99 / 100).min(latencies.len() - 1)];
    Entry {
        name: "serve_throughput",
        baseline_us: direct.min_us,
        min_us: walls[0],
        median_us,
        mean_us: walls.iter().sum::<f64>() / walls.len() as f64,
        iterations: walls.len() as u64,
        // The servers report energy as rounded decimals; the direct
        // runs carry the exact f64s — use those for the energy column.
        work: direct.work,
        bytes_per_node: None,
        extra: vec![
            ("tenants", SERVE_TENANTS as f64),
            ("sims_per_sec", SERVE_TENANTS as f64 / (median_us / 1e6)),
            ("queries", latencies.len() as f64),
            ("p99_query_us", p99_us),
        ],
        note: Some(
            "baseline = same tenant scenarios run directly in-process, sequentially; \
             on few-core hosts <1.0x is HTTP+slicing overhead, not a regression",
        ),
    }
}

/// Measure the regression scenarios and write the report to `path`.
/// `full_grids` adds the 100k- and 1M-node scenarios (minutes of
/// wall time); the check path stops at the 10k grid.
fn run_json(measurement: Duration, path: &std::path::Path, full_grids: bool) {
    let mut c = Criterion::default().measurement_time(measurement);
    let prog = core_loop_program();
    let core = c.measure_function(&mut |b: &mut Bencher| b.iter(|| run_core_loop(&prog)));
    let net = c.measure_function(&mut |b: &mut Bencher| b.iter(run_net_mesh));
    let programs = sparse_programs();
    let sparse = c.measure_function(&mut |b: &mut Bencher| {
        b.iter(|| run_net_sparse(&programs, Scheduler::EventDriven))
    });

    // Workload columns (deterministic per scenario): one extra run of
    // each, outside the timing loop, at the default 1.8 V point.
    let core_work = run_core_loop(&prog);
    let net_work = run_net_mesh();
    let sparse_work = run_net_sparse(&programs, Scheduler::EventDriven);

    let grid_programs = grid_programs();
    let grid_10k = grid_entry(
        "net_grid_10k",
        GRID_10K,
        3,
        &grid_programs,
        Some("auto scheduler runs one shard at this scale, like the baseline: ~1.0x is honest"),
    );
    let grid_10k_sliced = grid_sliced_entry(&grid_10k, 3, &grid_programs);
    let mut entries = vec![
        summary_entry(
            "simulate_30k_instructions",
            BASELINE_30K_US,
            core,
            core_work,
        ),
        summary_entry("net_speed_25_node_mesh", BASELINE_NET_US, net, net_work),
        summary_entry(
            "net_sparse_256",
            BASELINE_SPARSE_LOCKSTEP_US,
            sparse,
            sparse_work,
        ),
        compute_entry(5),
        grid_10k,
        grid_10k_sliced,
        // One quick rep in the CI smoke path; real stats on --json.
        serve_entry(if full_grids { 5 } else { 1 }),
        fleet_lifetime_entry(if full_grids { 5 } else { 1 }),
    ];
    if full_grids {
        entries.push(grid_entry(
            "net_grid_100k",
            GRID_100K,
            3,
            &grid_programs,
            Some("auto scheduler splits the fleet into 64 shards at this scale; one shard runs it as fast, so ~1.0x"),
        ));
        // At a million nodes the one-shard baseline would take far
        // longer than the measurement is worth; the 10k/100k rows
        // establish the scaling, this row proves the size runs.
        let m = time_grid(
            GRID_1M,
            (Scheduler::Sharded, GRID_SHARDS),
            None,
            1,
            &grid_programs,
        );
        entries.push(Entry {
            name: "net_grid_1m",
            baseline_us: m.min_us,
            min_us: m.min_us,
            median_us: m.median_us,
            mean_us: m.mean_us,
            iterations: m.reps,
            work: m.work,
            bytes_per_node: Some(m.bytes_per_node),
            extra: Vec::new(),
            note: Some("one-shard baseline not measured at this scale; speedup vs itself"),
        });
    }
    let rows: Vec<String> = entries.iter().map(Entry::to_json).collect();
    let json = format!(
        "{{\n  \"bench\": \"sim_speed\",\n  \"vdd_v\": 1.8,\n  \"scenarios\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    std::fs::write(path, &json).expect("write bench report");
    print!("{json}");
    println!("wrote {}", path.display());
}

/// Where `--json` writes the recorded report (the repo root).
fn report_path() -> std::path::PathBuf {
    std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).join("BENCH_sim_speed.json")
}

/// CI smoke mode: run every scenario for a couple of iterations, write
/// the JSON, and verify it is well-formed — catches scenario panics and
/// report-format rot without paying full measurement time — and that
/// `net_grid_10k` stays under its per-node memory ceiling.
fn run_check() {
    // A throwaway path: the smoke run's few-iteration timings must not
    // clobber the recorded repo-root report. The grid coverage is the
    // scaled-down 10k scenario only; 100k/1m stay out of CI budgets.
    let path = std::env::temp_dir().join("BENCH_sim_speed.check.json");
    run_json(Duration::from_millis(1), &path, false);
    let json = std::fs::read_to_string(&path).expect("read back bench report");
    validate_report(&json, false);
    let bytes = grid_10k_bytes_per_node(&json);
    assert!(
        bytes <= GRID_10K_MAX_BYTES_PER_NODE,
        "net_grid_10k holds {bytes} B/node of live heap after its run, \
         over the {GRID_10K_MAX_BYTES_PER_NODE} B/node ceiling"
    );
    println!("bench check ok: {} is well-formed", path.display());
}

/// The most live heap per node `net_grid_10k` may hold after its run.
/// With copy-on-write memory and decode-cache pages each sleeper owns
/// one 512 B DMEM page, and the row reads 2,743 B/node, the sharded
/// engine's kept calendars included (2,698 before the engine kept
/// them; 2,785 while its shards also kept a whole call's stimulus
/// queue and per-shard output and trace buffers). A whole private
/// decode cache on each of the 60 MAC-cluster nodes read 3,854, a node
/// vector grown by doubling 4,819, and a private 4 KB DMEM bank per
/// sleeper 8,417.
const GRID_10K_MAX_BYTES_PER_NODE: u64 = 3_000;

/// The `bytes_per_node` figure of the report's `net_grid_10k` row.
fn grid_10k_bytes_per_node(json: &str) -> u64 {
    let row = json
        .split("\"name\": \"net_grid_10k\"")
        .nth(1)
        .and_then(|rest| rest.split("\n    }").next())
        .expect("net_grid_10k row in report");
    row.lines()
        .find_map(|l| l.trim().strip_prefix("\"bytes_per_node\": "))
        .and_then(|v| v.trim_end_matches(',').parse().ok())
        .expect("net_grid_10k bytes_per_node")
}

/// Scenario names expected in a report; grid scenarios additionally
/// carry a `bytes_per_node` column.
fn expected_scenarios(full_grids: bool) -> (Vec<&'static str>, usize) {
    let mut names = vec![
        "simulate_30k_instructions",
        "net_speed_25_node_mesh",
        "net_sparse_256",
        "compute_heavy",
        "net_grid_10k",
        "net_grid_10k_sliced",
        "serve_throughput",
        "fleet_lifetime",
    ];
    let mut grids = 2;
    if full_grids {
        names.extend(["net_grid_100k", "net_grid_1m"]);
        grids += 2;
    }
    (names, grids)
}

/// Minimal structural validation of the hand-rolled report (the
/// workspace has no JSON parser by design): balanced braces/brackets,
/// every scenario present, every numeric field finite and positive.
fn validate_report(json: &str, full_grids: bool) {
    let mut depth = 0i32;
    for ch in json.chars() {
        match ch {
            '{' | '[' => depth += 1,
            '}' | ']' => {
                depth -= 1;
                assert!(depth >= 0, "unbalanced braces in report");
            }
            _ => {}
        }
    }
    assert_eq!(depth, 0, "unbalanced braces in report");
    let (names, grids) = expected_scenarios(full_grids);
    for name in &names {
        assert!(
            json.contains(&format!("\"name\": \"{name}\"")),
            "scenario {name} missing from report"
        );
    }
    let count_of = |field: &str| -> Vec<f64> {
        json.lines()
            .filter_map(|l| l.trim().strip_prefix(&format!("\"{field}\": ")))
            .map(|v| {
                v.trim_end_matches(',')
                    .parse()
                    .unwrap_or_else(|_| panic!("{field} parses as a number"))
            })
            .collect()
    };
    for field in [
        "speedup",
        "min_us",
        "median_us",
        "instructions",
        "energy_pj",
        "pj_per_instruction",
    ] {
        let values = count_of(field);
        assert_eq!(values.len(), names.len(), "one {field} per scenario");
        assert!(
            values.iter().all(|s| s.is_finite() && *s > 0.0),
            "{field} must be finite and positive: {values:?}"
        );
    }
    let mem = count_of("bytes_per_node");
    assert_eq!(mem.len(), grids, "one bytes_per_node per grid scenario");
    assert!(
        mem.iter().all(|b| b.is_finite() && *b > 0.0),
        "bytes_per_node must be finite and positive: {mem:?}"
    );
    for field in ["tenants", "sims_per_sec", "queries", "p99_query_us"] {
        let values = count_of(field);
        assert_eq!(values.len(), 1, "one {field} on the serve scenario");
        assert!(
            values.iter().all(|s| s.is_finite() && *s > 0.0),
            "{field} must be finite and positive: {values:?}"
        );
    }
    for field in ["snap_lifetime_s", "avr_lifetime_s", "lifetime_ratio"] {
        let values = count_of(field);
        assert_eq!(
            values.len(),
            1,
            "one {field} on the fleet-lifetime scenario"
        );
        assert!(
            values.iter().all(|s| s.is_finite() && *s > 0.0),
            "{field} must be finite and positive: {values:?}"
        );
    }
}

/// Re-measure the lockstep reference for the sparse scenario (six
/// runs, prints the minimum). Paste the result into
/// `BASELINE_SPARSE_LOCKSTEP_US` when the scenario itself changes.
fn run_sparse_baseline() {
    let programs = sparse_programs();
    let mut best = f64::INFINITY;
    for i in 0..6 {
        let start = std::time::Instant::now();
        run_net_sparse(&programs, Scheduler::Lockstep);
        let us = start.elapsed().as_secs_f64() * 1e6;
        println!("lockstep sparse run {i}: {us:.0} µs");
        best = best.min(us);
    }
    println!("minimum: {best:.0} µs  (BASELINE_SPARSE_LOCKSTEP_US)");
}

/// Development probe: time one grid size under each engine/shard
/// count, printing raw numbers (not part of the recorded report).
fn run_grid_probe(size: (usize, usize, u64), reps: u64) {
    let programs = grid_programs();
    for (label, scheduler, shards) in [
        ("warmup", Scheduler::Sharded, GRID_SHARDS),
        ("event-driven", Scheduler::EventDriven, 1),
        ("sharded/1", Scheduler::Sharded, 1),
        ("sharded/8", Scheduler::Sharded, 8),
        ("sharded/64", Scheduler::Sharded, 64),
    ] {
        let t = time_grid(size, (scheduler, shards), None, reps, &programs);
        println!(
            "{label:<14} min {:>10.0} µs  median {:>10.0} µs  ({} instr, {} B/node, {} dlv, {} col)",
            t.min_us, t.median_us, t.work.0, t.bytes_per_node, t.deliveries, t.collisions
        );
    }
}

/// Development probe: time the 30k-instruction core loop alone (min
/// and median over many reps) — the tight feedback loop for engine
/// work, not part of the recorded report.
fn run_core_probe() {
    let prog = core_loop_program();
    let mut times: Vec<f64> = Vec::new();
    for _ in 0..200 {
        let start = Instant::now();
        let work = run_core_loop(&prog);
        times.push(start.elapsed().as_secs_f64() * 1e6);
        assert!(work.0 > 30_000);
    }
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let min = times[0];
    let median = times[times.len() / 2];
    println!(
        "core 30k: min {min:.1} µs  median {median:.1} µs  ({:.2}x / {:.2}x vs {BASELINE_30K_US} µs baseline)",
        BASELINE_30K_US / min,
        BASELINE_30K_US / median,
    );
}

fn main() {
    if std::env::args().any(|a| a == "--core-probe") {
        run_core_probe();
    } else if std::env::args().any(|a| a == "--grid-probe") {
        run_grid_probe(GRID_10K, 2);
    } else if std::env::args().any(|a| a == "--grid-probe-100k") {
        run_grid_probe(GRID_100K, 1);
    } else if std::env::args().any(|a| a == "--grid-probe-1m") {
        let programs = grid_programs();
        let t = time_grid(
            GRID_1M,
            (Scheduler::Sharded, GRID_SHARDS),
            None,
            1,
            &programs,
        );
        println!(
            "1m sharded/8: {:.0} µs, {} instr, {} B/node, {} dlv, {} col",
            t.min_us, t.work.0, t.bytes_per_node, t.deliveries, t.collisions
        );
    } else if std::env::args().any(|a| a == "--serve-probe") {
        println!("{}", serve_entry(3).to_json());
    } else if std::env::args().any(|a| a == "--fleet-probe") {
        println!("{}", fleet_lifetime_entry(5).to_json());
    } else if std::env::args().any(|a| a == "--check") {
        run_check();
    } else if std::env::args().any(|a| a == "--baseline") {
        run_sparse_baseline();
    } else if std::env::args().any(|a| a == "--json") {
        // The shim's default measurement window.
        run_json(Duration::from_millis(400), &report_path(), true);
    } else {
        benches();
    }
}
