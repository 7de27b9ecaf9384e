//! The network simulator: sleep-aware event-driven scheduling with a
//! lockstep reference path and a sharded engine for huge fleets.
//!
//! SNAP/LE's thesis is that an event-driven node does *zero* work while
//! idle — the simulator mirrors the hardware. The default scheduler
//! keeps a **wake calendar** ([`dess::WakeQueue`]) of per-node
//! `next_activity` instants; each synchronization round pops only the
//! nodes due in the window, so simulation cost is proportional to
//! *active* nodes, not node count. Sleeping nodes are skipped entirely
//! and their clocks lazily fast-forwarded when an event finally reaches
//! them.
//!
//! [`Scheduler::Sharded`] partitions the fleet spatially into shards
//! (grid cells of the [`Topology`] spatial hash, grouped contiguously),
//! each with its own wake calendar, and advances shards independently
//! through conservative *epochs*: since a radio word takes one full
//! word time (≈833 µs at 19.2 kbps) to serialize, no transmission
//! started after instant `t` can be delivered before `t + word_time`,
//! so shards can run to `min(t + word_time, next scheduled delivery)`
//! without hearing from each other. Cross-shard transmissions are
//! exchanged at the epoch barrier through the one global delivery
//! calendar.
//!
//! The original lockstep scheduler (advance *every* node each round)
//! survives as [`Scheduler::Lockstep`], both as the reference for the
//! equivalence property tests and as the recorded bench baseline. All
//! three schedulers produce bit-identical traces, energy totals and
//! architectural state. The invariant that makes this hold across
//! *different* window/epoch boundaries: every delivery and stimulus is
//! applied at its exact due instant, to a node synced to exactly that
//! instant; between applications a node's evolution is a pure function
//! of its own state (splitting an idle stretch at any set of interior
//! deadlines is bit-identical — no energy accrues while asleep and
//! timer expiries are never skipped); channel interaction (collision
//! checks, fade draws, counters) happens only at application, in the
//! delivery calendar's deterministic `(time, insertion)` order; and the
//! trace is canonically re-ordered chunk by chunk ([`Trace::seal`]), so
//! recording order within a window is free.

use crate::channel::{Channel, Transmission};
use crate::pool::WorkerPool;
use crate::topology::{Position, Topology};
use crate::trace::{Trace, TraceEvent, TraceKind, TraceMode};
use dess::{Calendar, SimDuration, SimTime, WakeQueue};
use snap_asm::Program;
use snap_core::CoreConfig;
use snap_energy::BatteryConfig;
use snap_isa::Word;
use snap_node::atmega::AvrCore;
use snap_node::{Node, NodeConfig, NodeError, NodeId, NodeKind, NodeOutput};
use snap_snapshot::{Decode, Encode, Reader, SnapshotError, Writer};
use snap_telemetry::Histogram;
use std::collections::VecDeque;

/// Work window granted to running nodes per synchronization round.
const RUN_QUANTUM: SimDuration = SimDuration::from_us(100);

/// Default node count at which windows run on the worker pool.
pub const PARALLEL_THRESHOLD: usize = 8;

/// Default shard count for [`Scheduler::Sharded`].
pub const DEFAULT_SHARDS: usize = 8;

/// Fleet size at which [`Scheduler::Auto`] switches from the
/// event-driven scheduler to the sharded engine. Below this the
/// sharded engine's epoch barriers cost more than they save (see
/// `DESIGN.md` §6d); at and above it the per-shard wake calendars win.
pub const AUTO_SHARDED_THRESHOLD: usize = 100_000;

/// Node count at which a `Full` trace is considered a mistake: the
/// simulator switches to [`TraceMode::CountOnly`] (unless the mode was
/// set explicitly) and logs loudly either way.
const FULL_TRACE_NODE_LIMIT: usize = 10_000;

/// Which scheduling strategy [`NetworkSim::run_until`] uses.
///
/// The discriminants are pinned: snapshots store them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduler {
    /// Advance every node every round (the original O(nodes)-per-round
    /// scheduler; reference implementation and bench baseline).
    Lockstep = 0,
    /// Advance only nodes that are due, driven by the wake calendar
    /// (cost proportional to active nodes).
    EventDriven = 1,
    /// Spatially sharded conservative-lookahead engine: per-shard wake
    /// calendars advance independently between delivery barriers. The
    /// scalable path for 10⁵–10⁶-node fleets; bit-identical to the
    /// sequential schedulers for any shard count.
    Sharded = 2,
    /// Pick per fleet at [`NetworkSim::run_until`] time: event-driven
    /// below [`AUTO_SHARDED_THRESHOLD`] nodes, sharded (with a shard
    /// count scaled to the fleet) at or above it. The default — and
    /// bit-identical to whichever scheduler it resolves to.
    #[default]
    Auto = 3,
}

impl Encode for Scheduler {
    fn encode(&self, w: &mut Writer) {
        w.u8(*self as u8);
    }
}

impl Decode for Scheduler {
    fn decode(r: &mut Reader) -> Result<Scheduler, SnapshotError> {
        let variants = [
            Scheduler::Lockstep,
            Scheduler::EventDriven,
            Scheduler::Sharded,
            Scheduler::Auto,
        ];
        r.variant(&variants, "scheduler discriminant")
    }
}

/// An external stimulus injected into a node on schedule.
///
/// Snapshots store a pinned discriminant (`SensorIrq` = 0,
/// `SensorReading` = 1), then the sensor id and value (0 for
/// `SensorIrq`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stimulus {
    /// Assert the node's sensor-interrupt pin.
    SensorIrq,
    /// Change a sensor's reading.
    SensorReading {
        /// Sensor id.
        id: u16,
        /// New value.
        value: Word,
    },
}

impl Encode for Stimulus {
    fn encode(&self, w: &mut Writer) {
        let (tag, id, value) = match *self {
            Stimulus::SensorIrq => (0, 0, 0),
            Stimulus::SensorReading { id, value } => (1, id, value),
        };
        w.u8(tag);
        w.u16(id);
        w.u16(value);
    }
}

impl Decode for Stimulus {
    fn decode(r: &mut Reader) -> Result<Stimulus, SnapshotError> {
        let (tag, id, value) = (r.u8()?, r.u16()?, r.u16()?);
        match tag {
            0 => Ok(Stimulus::SensorIrq),
            1 => Ok(Stimulus::SensorReading { id, value }),
            _ => Err(SnapshotError::Corrupt("stimulus discriminant")),
        }
    }
}

/// When the core asks for the tier-2 engine, run snap-lint's
/// termination proof over `program` and compile every proved handler
/// region ahead of time (after the node is loaded — loading drops any
/// compiled image). No-op for the other engines.
fn install_aot(node: &mut Node, program: &Program, core: &CoreConfig) {
    if core.engine != snap_core::Engine::Aot {
        return;
    }
    let analysis = snap_lint::analyze_program(program, core.operating_point);
    let regions: Vec<snap_core::AotRegion> = analysis
        .regions
        .iter()
        .map(|r| snap_core::AotRegion {
            entry: r.entry,
            addrs: r.addrs.clone(),
        })
        .collect();
    node.cpu_mut().install_aot(&regions);
}

/// The multi-node network simulator.
///
/// Fields are `pub(crate)` for one consumer only: [`crate::snapshot`].
pub struct NetworkSim {
    pub(crate) nodes: Vec<Node>,
    pub(crate) topology: Topology,
    pub(crate) channel: Channel,
    pub(crate) deliveries: Calendar<Transmission>,
    pub(crate) stimuli: Calendar<(NodeId, Stimulus)>,
    pub(crate) trace: Trace,
    pub(crate) now: SimTime,
    pub(crate) pool: WorkerPool,
    pub(crate) parallel_threshold: usize,
    pub(crate) scheduler: Scheduler,
    pub(crate) num_shards: usize,
    /// Whether the caller picked the trace mode explicitly (suppresses
    /// the large-fleet downgrade in [`NetworkSim::guard_trace_mode`]).
    pub(crate) trace_mode_explicit: bool,
    /// Per-node-index wake instants (event-driven scheduler only).
    wake: WakeQueue,
    /// Scratch: node indices due in the current window, sorted.
    batch: Vec<usize>,
    /// When telemetry is on: distribution of nodes advanced per
    /// scheduler window, and every node gets per-dispatch sampling.
    window_activity: Option<Histogram>,
}

impl NetworkSim {
    /// An empty network with the given radio range.
    pub fn new(range: f64) -> NetworkSim {
        NetworkSim {
            nodes: Vec::new(),
            topology: Topology::new(range),
            channel: Channel::new(),
            deliveries: Calendar::new(),
            stimuli: Calendar::new(),
            trace: Trace::new(),
            now: SimTime::ZERO,
            pool: WorkerPool::new(),
            parallel_threshold: PARALLEL_THRESHOLD,
            scheduler: Scheduler::default(),
            num_shards: DEFAULT_SHARDS,
            trace_mode_explicit: false,
            wake: WakeQueue::new(),
            batch: Vec::new(),
            window_activity: None,
        }
    }

    /// Turn on the observability layer: per-dispatch handler sampling
    /// on every node (current and future) and the per-window
    /// active-node histogram. Observation only — simulated behaviour,
    /// timing and energy are unchanged (the determinism suites compare
    /// sampled and unsampled runs).
    pub fn enable_telemetry(&mut self) {
        for node in &mut self.nodes {
            // AVR motes have no SNAP dispatch sampler; the kind-aware
            // metrics report covers them from core counters instead.
            if node.kind() != NodeKind::Avr {
                node.cpu_mut()
                    .enable_sampling(snap_telemetry::DEFAULT_RETAIN);
            }
        }
        if self.window_activity.is_none() {
            self.window_activity = Some(Histogram::new());
        }
    }

    /// Whether [`NetworkSim::enable_telemetry`] was called.
    pub fn telemetry_enabled(&self) -> bool {
        self.window_activity.is_some()
    }

    /// The per-window active-node distribution (telemetry only).
    pub(crate) fn window_activity(&self) -> Option<&Histogram> {
        self.window_activity.as_ref()
    }

    /// Record how many nodes a scheduler window actually advanced.
    fn note_window(&mut self, active: usize) {
        if let Some(h) = &mut self.window_activity {
            h.record(active as f64);
        }
    }

    /// Override the node count at which windows run on the worker pool
    /// (tests force it low/high to compare parallel vs sequential runs;
    /// both must produce bit-identical traces and energy totals).
    pub fn set_parallel_threshold(&mut self, threshold: usize) {
        self.parallel_threshold = threshold.max(1);
    }

    /// Select the scheduling strategy (default: [`Scheduler::Auto`]).
    /// All strategies produce bit-identical results; lockstep exists as
    /// the reference and baseline, sharded as the scalable path.
    pub fn set_scheduler(&mut self, scheduler: Scheduler) {
        self.scheduler = scheduler;
    }

    /// The configured scheduling strategy (possibly
    /// [`Scheduler::Auto`]).
    pub fn scheduler(&self) -> Scheduler {
        self.scheduler
    }

    /// The scheduler [`NetworkSim::run_until`] will actually use for
    /// the current fleet: [`Scheduler::Auto`] resolves by node count,
    /// anything else passes through.
    pub fn resolved_scheduler(&self) -> Scheduler {
        match self.scheduler {
            Scheduler::Auto if self.nodes.len() >= AUTO_SHARDED_THRESHOLD => Scheduler::Sharded,
            Scheduler::Auto => Scheduler::EventDriven,
            explicit => explicit,
        }
    }

    /// Shard count for an auto-resolved sharded run: one shard per
    /// ~2048 nodes, rounded up to a power of two, clamped to
    /// [[`DEFAULT_SHARDS`], 128]. Any count is bit-identical; this one
    /// keeps shards big enough to amortize the epoch barrier and small
    /// enough that a mostly-idle shard's calendar stays cheap.
    fn auto_shards(nodes: usize) -> usize {
        (nodes / 2048)
            .next_power_of_two()
            .clamp(DEFAULT_SHARDS, 128)
    }

    /// The shard count a sharded run will use: the configured count,
    /// or the fleet-scaled count under [`Scheduler::Auto`].
    fn effective_shards(&self) -> usize {
        match self.scheduler {
            Scheduler::Auto => Self::auto_shards(self.nodes.len()),
            _ => self.num_shards,
        }
    }

    /// Shard count for [`Scheduler::Sharded`] (default:
    /// [`DEFAULT_SHARDS`]); clamped to at least 1. Results are
    /// bit-identical for every shard count.
    pub fn set_shards(&mut self, shards: usize) {
        self.num_shards = shards.max(1);
    }

    /// The configured shard count.
    pub fn shards(&self) -> usize {
        self.num_shards
    }

    /// Select how the trace stores events (default: keep everything).
    /// Bench scenarios use [`TraceMode::CountOnly`] so long sparse runs
    /// don't grow memory without bound.
    pub fn set_trace_mode(&mut self, mode: TraceMode) {
        self.trace_mode_explicit = true;
        self.trace.set_mode(mode);
    }

    /// Node ids are assigned sequentially from 1, so the node slot is
    /// directly addressable without a map lookup.
    fn idx(id: NodeId) -> usize {
        debug_assert!(id.0 >= 1, "node ids start at 1");
        id.0 as usize - 1
    }

    /// Add a node at `position` running `program`. Node ids are
    /// assigned sequentially from 1 — build each program with the
    /// matching MAC `node_id`.
    ///
    /// # Panics
    ///
    /// Panics if the program does not fit the node's memories.
    pub fn add_node(&mut self, program: &Program, position: Position) -> NodeId {
        self.add_node_with_core(program, position, CoreConfig::default())
    }

    /// [`NetworkSim::add_node`] with an explicit core configuration
    /// (operating point / timing model) — how `netsim --vdd` builds
    /// networks at 0.9 V or 0.6 V.
    ///
    /// # Panics
    ///
    /// Panics if the program does not fit the node's memories.
    pub fn add_node_with_core(
        &mut self,
        program: &Program,
        position: Position,
        core: CoreConfig,
    ) -> NodeId {
        let id = NodeId(self.nodes.len() as u32 + 1);
        let cfg = NodeConfig {
            id,
            core,
            ..NodeConfig::default()
        };
        let mut node = Node::new(cfg);
        if self.telemetry_enabled() {
            node.cpu_mut()
                .enable_sampling(snap_telemetry::DEFAULT_RETAIN);
        }
        node.load(program).expect("program fits the node memories");
        install_aot(&mut node, program, &core);
        self.topology.place(id, position);
        self.nodes.push(node);
        id
    }

    /// Add a whole fleet of nodes running the same program, cloned from
    /// one fully-loaded template. The program is loaded (and its decode
    /// cache warmed) exactly once; every clone shares the instruction
    /// memory, data memory and decode cache copy-on-write, so a
    /// mostly-idle million-node fleet costs per-node *state* (registers,
    /// radio, timers), not per-node memory images. Positions are placed
    /// through [`Topology::place_many`] (batched neighbour
    /// construction). Returns the new ids in `positions` order.
    ///
    /// # Panics
    ///
    /// Panics if the program does not fit the node memories.
    pub fn add_nodes_from<I>(
        &mut self,
        program: &Program,
        core: CoreConfig,
        positions: I,
    ) -> Vec<NodeId>
    where
        I: IntoIterator<Item = Position>,
    {
        let cfg = NodeConfig {
            id: NodeId(1), // placeholder; every clone gets its own id
            core,
            ..NodeConfig::default()
        };
        let mut template = Node::new(cfg);
        template
            .load(program)
            .expect("program fits the node memories");
        template.cpu_mut().predecode_all();
        // Analyze and compile once on the template; every clone shares
        // the compiled image copy-on-write like the memories.
        install_aot(&mut template, program, &core);
        let telemetry = self.telemetry_enabled();
        let mut placed = Vec::new();
        let mut ids = Vec::new();
        for position in positions {
            let id = NodeId(self.nodes.len() as u32 + 1);
            let mut node = template.clone_with_id(id);
            if telemetry {
                node.cpu_mut()
                    .enable_sampling(snap_telemetry::DEFAULT_RETAIN);
            }
            self.nodes.push(node);
            placed.push((id, position));
            ids.push(id);
        }
        self.topology.place_many(placed);
        ids
    }

    /// Add an ATmega-class mote at `position`. The core arrives fully
    /// programmed (see `atmega::tinyos`); its SPI-radio traffic goes on
    /// the same air, calendar and trace as every SNAP transmission.
    /// AVR motes carry no SNAP dispatch sampler — telemetry reports
    /// them through the kind-aware node metrics instead.
    pub fn add_avr_node(&mut self, core: AvrCore, position: Position) -> NodeId {
        let id = NodeId(self.nodes.len() as u32 + 1);
        let node = Node::new_avr(id, core);
        self.topology.place(id, position);
        self.nodes.push(node);
        id
    }

    /// Add a mains-powered gateway at `position`: a SNAP node whose
    /// receiver listens from boot and which logs every word it hears to
    /// its uplink buffer (drained by the serving layer via
    /// [`Node::take_uplink`]). Gateways never carry a battery budget.
    ///
    /// # Panics
    ///
    /// Panics if the program does not fit the node's memories.
    pub fn add_gateway(&mut self, program: &Program, position: Position) -> NodeId {
        self.add_gateway_with_core(program, position, CoreConfig::default())
    }

    /// [`NetworkSim::add_gateway`] with an explicit core configuration.
    ///
    /// # Panics
    ///
    /// Panics if the program does not fit the node's memories.
    pub fn add_gateway_with_core(
        &mut self,
        program: &Program,
        position: Position,
        core: CoreConfig,
    ) -> NodeId {
        let id = NodeId(self.nodes.len() as u32 + 1);
        let cfg = NodeConfig {
            id,
            core,
            ..NodeConfig::default()
        };
        let mut node = Node::new_gateway(cfg);
        if self.telemetry_enabled() {
            node.cpu_mut()
                .enable_sampling(snap_telemetry::DEFAULT_RETAIN);
        }
        node.load(program).expect("program fits the node memories");
        install_aot(&mut node, program, &core);
        self.topology.place(id, position);
        self.nodes.push(node);
        id
    }

    /// Attach (or remove) a battery budget on one node. A budgeted node
    /// that exhausts its battery mid-run dies at a deterministic,
    /// scheduler-invariant instant (a [`TraceKind::NodeDeath`] event)
    /// and is inert afterwards. No-op on gateways (mains-powered).
    ///
    /// # Panics
    ///
    /// Panics for unknown ids.
    pub fn set_battery(&mut self, id: NodeId, battery: Option<BatteryConfig>) {
        self.nodes[Self::idx(id)].set_battery(battery);
    }

    /// Number of nodes in the network.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The node with this id.
    ///
    /// # Panics
    ///
    /// Panics for unknown ids.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[Self::idx(id)]
    }

    /// Mutable access to a node (fixtures: sensors, etc.).
    ///
    /// # Panics
    ///
    /// Panics for unknown ids.
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[Self::idx(id)]
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The channel statistics.
    pub fn channel(&self) -> &Channel {
        &self.channel
    }

    /// Enable random per-word loss (fading) on the channel.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= probability <= 1.0`.
    pub fn set_loss(&mut self, probability: f64, seed: u64) {
        self.channel.set_loss(probability, seed);
    }

    /// The event trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Global simulation time reached so far.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule a stimulus for `node` at absolute time `at`.
    pub fn schedule(&mut self, node: NodeId, at: SimTime, stimulus: Stimulus) {
        self.stimuli.schedule(at, (node, stimulus));
    }

    /// Run the network until `t_end`.
    ///
    /// # Errors
    ///
    /// Propagates the first [`NodeError`] from any node.
    pub fn run_until(&mut self, t_end: SimTime) -> Result<(), NodeError> {
        self.guard_trace_mode();
        match self.resolved_scheduler() {
            Scheduler::Lockstep => self.run_lockstep(t_end),
            Scheduler::EventDriven => self.run_event_driven(t_end),
            Scheduler::Sharded => self.run_sharded(t_end),
            Scheduler::Auto => unreachable!("Auto resolves to a concrete scheduler"),
        }
    }

    /// Catch the classic footgun of launching a huge fleet with the
    /// default keep-everything trace. Unless the caller explicitly
    /// picked a mode, large runs are downgraded to
    /// [`TraceMode::CountOnly`]; either way the situation is loudly
    /// logged.
    fn guard_trace_mode(&mut self) {
        if self.nodes.len() < FULL_TRACE_NODE_LIMIT || self.trace.mode() != TraceMode::Full {
            return;
        }
        if self.trace_mode_explicit {
            eprintln!(
                "snap-net: WARNING: running {} nodes with TraceMode::Full; \
                 the trace will grow without bound (explicitly requested, keeping it)",
                self.nodes.len()
            );
        } else {
            eprintln!(
                "snap-net: WARNING: {} nodes >= {FULL_TRACE_NODE_LIMIT} with the default \
                 TraceMode::Full; switching to TraceMode::CountOnly \
                 (call set_trace_mode to override)",
                self.nodes.len()
            );
            self.trace.set_mode(TraceMode::CountOnly);
        }
    }

    /// Run the network for `duration` from the current time.
    ///
    /// # Errors
    ///
    /// See [`NetworkSim::run_until`].
    pub fn run_for(&mut self, duration: SimDuration) -> Result<(), NodeError> {
        self.run_until(self.now + duration)
    }

    // ---- lockstep scheduler (reference path) ----

    fn run_lockstep(&mut self, t_end: SimTime) -> Result<(), NodeError> {
        loop {
            let Some(t) = self.next_instant() else {
                // Nothing will ever happen again: sync clocks to the
                // horizon and stop.
                self.advance_all(t_end)?;
                self.now = t_end;
                self.trace.seal();
                return Ok(());
            };
            if t >= t_end {
                self.advance_all(t_end)?;
                self.process_due(t_end);
                self.now = t_end;
                self.trace.seal();
                return Ok(());
            }
            // Phase 1: apply anything due at exactly `t`, with every
            // clock synced to exactly `t`. The sync itself executes
            // nothing — `t` is the global minimum instant, so no node
            // has work before it.
            if self.deliveries.peek_time().is_some_and(|d| d <= t)
                || self.stimuli.peek_time().is_some_and(|d| d <= t)
            {
                self.advance_all(t)?;
                self.process_due(t);
            }
            // Phase 2: run a window. Its end never overshoots a
            // calendar instant, so phase 1 always lands exactly on due
            // events; node wakes inside the window need no boundary —
            // `advance_all` runs through them.
            let later = Self::min_time(self.deliveries.peek_time(), self.stimuli.peek_time());
            let window_end = Self::window_end(t, later, t_end);
            self.note_window(self.nodes.len());
            self.advance_all(window_end)?;
            self.now = window_end;
            self.trace.seal();
        }
    }

    /// Window: from `t` up to the next calendar instant, capped by the
    /// quantum. Schedulers need *not* agree on window boundaries:
    /// events are applied at exact instants and the trace is sealed
    /// canonically, so any partitioning yields the same results.
    fn window_end(t: SimTime, later: Option<SimTime>, t_end: SimTime) -> SimTime {
        let mut window_end = t + RUN_QUANTUM;
        if let Some(l) = later {
            window_end = window_end.min(l);
        }
        window_end.min(t_end).max(t + SimDuration::from_ps(1))
    }

    /// The earlier of two optional instants.
    fn min_time(a: Option<SimTime>, b: Option<SimTime>) -> Option<SimTime> {
        match (a, b) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// The earliest instant anything can happen, over the calendars and
    /// all node activities.
    fn next_instant(&self) -> Option<SimTime> {
        let mut first = Self::min_time(self.deliveries.peek_time(), self.stimuli.peek_time());
        for node in &self.nodes {
            first = Self::min_time(first, node.next_activity());
        }
        first
    }

    /// Advance every node to `deadline` (in parallel for big networks)
    /// and fold their outputs into the channel/trace.
    fn advance_all(&mut self, deadline: SimTime) -> Result<(), NodeError> {
        let results: Vec<Result<Vec<NodeOutput>, NodeError>> =
            if self.nodes.len() >= self.parallel_threshold {
                self.pool.run(&mut self.nodes, deadline)
            } else {
                self.nodes
                    .iter_mut()
                    .map(|node| node.run_until(deadline))
                    .collect()
            };

        for (i, result) in results.into_iter().enumerate() {
            let from = self.nodes[i].id();
            let outputs = result?;
            self.fold_outputs(from, outputs);
        }
        Ok(())
    }

    // ---- event-driven scheduler (wake calendar) ----

    fn run_event_driven(&mut self, t_end: SimTime) -> Result<(), NodeError> {
        // Rebuild the calendar: anything may have changed through
        // `node_mut` (test fixtures poke sensors and CPUs directly)
        // since the last run. From here on it is maintained
        // incrementally — re-keyed only when something that can change
        // a node's wake time happens.
        self.wake.clear();
        for i in 0..self.nodes.len() {
            self.rekey(i);
        }
        loop {
            // The earliest instant anything can happen: the wake
            // calendar mirrors the per-node scan of the lockstep path.
            let first = Self::min_time(
                self.wake.peek().map(|(t, _)| t),
                Self::min_time(self.deliveries.peek_time(), self.stimuli.peek_time()),
            );
            let Some(t) = first else {
                // Nothing will ever happen again: sync clocks to the
                // horizon and stop (mirrors lockstep's tail).
                self.advance_all(t_end)?;
                self.now = t_end;
                self.trace.seal();
                return Ok(());
            };
            if t >= t_end {
                self.advance_all(t_end)?;
                self.process_due(t_end);
                self.now = t_end;
                self.trace.seal();
                return Ok(());
            }
            // Phase 1: apply events due at exactly `t`, syncing only
            // the nodes they reach.
            self.process_due_synced(t)?;
            // Phase 2: pop the nodes due at `t` and run them through a
            // window. The window never overshoots a calendar instant or
            // a skipped node's wake.
            self.batch.clear();
            while let Some((wt, i)) = self.wake.peek() {
                if wt > t {
                    break;
                }
                self.wake.pop();
                self.batch.push(i);
            }
            let later = Self::min_time(
                self.wake.peek().map(|(wt, _)| wt),
                Self::min_time(self.deliveries.peek_time(), self.stimuli.peek_time()),
            );
            let window_end = Self::window_end(t, later, t_end);
            // Nodes waking exactly at the window boundary belong to
            // this round too (they would otherwise pin the next window
            // to zero width).
            while let Some((wt, i)) = self.wake.peek() {
                if wt > window_end {
                    break;
                }
                self.wake.pop();
                self.batch.push(i);
            }
            // Outputs must fold in node-index order — the order the
            // lockstep fold over all nodes observes.
            self.batch.sort_unstable();
            self.note_window(self.batch.len());
            self.advance_batch(window_end)?;
            self.now = window_end;
            self.trace.seal();
        }
    }

    /// Refresh node `i`'s wake-calendar entry from its current state.
    fn rekey(&mut self, i: usize) {
        match self.nodes[i].next_activity() {
            Some(t) => self.wake.set(i, t),
            None => self.wake.remove(i),
        }
    }

    /// Advance only the due nodes (in parallel when the batch is big)
    /// and fold their outputs; skipped nodes are untouched — that skip
    /// is the entire speedup.
    fn advance_batch(&mut self, deadline: SimTime) -> Result<(), NodeError> {
        let results: Vec<Result<Vec<NodeOutput>, NodeError>> =
            if self.batch.len() >= self.parallel_threshold {
                self.pool.run_subset(&mut self.nodes, &self.batch, deadline)
            } else {
                let nodes = &mut self.nodes;
                self.batch
                    .iter()
                    .map(|&i| nodes[i].run_until(deadline))
                    .collect()
            };
        for (b, result) in results.into_iter().enumerate() {
            let i = self.batch[b];
            let from = self.nodes[i].id();
            let outputs = result?;
            self.fold_outputs(from, outputs);
            self.rekey(i);
        }
        Ok(())
    }

    /// Bring a node that may have been skipped (lazily-synced clock) to
    /// the window boundary before an event is posted to it, exactly as
    /// the lockstep `advance_all` would have. For an already-advanced,
    /// halted, or quietly sleeping node this is a cheap no-op /
    /// `advance_idle`; it can execute no instructions and produce no
    /// outputs, because any node with work before `to` was in this
    /// window's batch.
    fn sync_node(&mut self, i: usize, to: SimTime) -> Result<(), NodeError> {
        let outputs = self.nodes[i].run_until(to)?;
        // The one output a pure clock sync can produce is battery
        // death: a skipped node's death instant can land inside the
        // stretch being fast-forwarded (its wake entry is the death
        // instant, but an event can reach it at the same instant first).
        debug_assert!(
            outputs.iter().all(|o| matches!(o, NodeOutput::Died { .. })),
            "clock sync must not produce outputs (beyond battery death)"
        );
        let from = self.nodes[i].id();
        self.fold_outputs(from, outputs);
        Ok(())
    }

    /// Deliver transmissions and apply stimuli due at or before `t`,
    /// fast-forwarding each involved node's clock to `t` first (the
    /// lockstep path has already advanced every node when its
    /// `process_due` runs; the event-driven path does it lazily, only
    /// for nodes events actually reach).
    fn process_due_synced(&mut self, t: SimTime) -> Result<(), NodeError> {
        while let Some(due) = self.deliveries.peek_time() {
            if due > t {
                break;
            }
            let (_, tx) = self.deliveries.pop().expect("peeked");
            for r in 0..self.topology.neighbours(tx.from).len() {
                let id = self.topology.neighbours(tx.from)[r];
                self.sync_node(Self::idx(id), t)?;
            }
            self.deliver(tx);
            for r in 0..self.topology.neighbours(tx.from).len() {
                let id = self.topology.neighbours(tx.from)[r];
                self.rekey(Self::idx(id));
            }
        }
        while let Some(due) = self.stimuli.peek_time() {
            if due > t {
                break;
            }
            let (due, (id, stimulus)) = self.stimuli.pop().expect("peeked");
            self.sync_node(Self::idx(id), t)?;
            self.apply_stimulus(id, stimulus, due);
            self.rekey(Self::idx(id));
        }
        // Keep a couple of word-times of history for overlap checks.
        self.expire_channel(t);
        Ok(())
    }

    // ---- sharded scheduler (conservative lookahead epochs) ----

    fn run_sharded(&mut self, t_end: SimTime) -> Result<(), NodeError> {
        let (mut shards, shard_of) = self.build_shards(t_end);
        let word_floor = self.min_word_time();
        loop {
            // The earliest instant anything can happen, over the global
            // delivery calendar and every shard's wakes and stimuli.
            let mut first = self.deliveries.peek_time();
            for shard in &shards {
                first = Self::min_time(first, shard.wake.peek().map(|(t, _)| t));
                first = Self::min_time(first, shard.stimuli.front().map(|s| s.0));
            }
            let Some(t) = first else {
                return self.finish_sharded(&mut shards, t_end);
            };
            if t >= t_end {
                return self.finish_sharded(&mut shards, t_end);
            }
            // Phase 1 (coordinator): deliveries, then boundary
            // stimuli, due at exactly `t` — the sequential order.
            self.apply_due_sharded(t, &mut shards, &shard_of)?;
            // Phase 2: every shard runs to the conservative epoch
            // bound. A word needs `word_floor` to serialize, so no
            // transmission started after `t` can be delivered before
            // `t + word_floor`; already-scheduled deliveries cap the
            // epoch explicitly. Within the bound shards cannot affect
            // each other, so they advance independently.
            let mut to = t + word_floor;
            if let Some(d) = self.deliveries.peek_time() {
                to = to.min(d);
            }
            to = to.min(t_end);
            self.run_epochs(&mut shards, to)?;
            self.now = to;
        }
    }

    /// The epoch lookahead: the shortest radio word time in the fleet.
    /// A word takes this long to serialize, so nothing a node does
    /// after `t` can reach another node before `t + word_floor`.
    fn min_word_time(&self) -> SimDuration {
        self.nodes
            .iter()
            .map(|n| n.radio().word_time())
            .min()
            .unwrap_or(RUN_QUANTUM)
    }

    /// Partition the fleet into shards along the topology's grid-cell
    /// order (whole cells stay together, so most radio neighbourhoods
    /// are shard-local), rebuild each shard's wake calendar, and hand
    /// each shard its slice of this run's stimuli in global pop order.
    /// Returns the shards plus the global-index → (shard, member
    /// position) map.
    #[allow(clippy::type_complexity)]
    fn build_shards(&mut self, t_end: SimTime) -> (Vec<Shard>, Vec<(u32, u32)>) {
        let n = self.nodes.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (self.topology.cell(self.nodes[i].id()), i));
        let shard_count = self.effective_shards().min(n.max(1)).max(1);
        let chunk = n.div_ceil(shard_count).max(1);
        let mut shards: Vec<Shard> = order
            .chunks(chunk)
            .map(|c| Shard::new(c.to_vec()))
            .collect();
        let mut shard_of = vec![(0u32, 0u32); n];
        for (s, shard) in shards.iter_mut().enumerate() {
            for (local, &gi) in shard.members.iter().enumerate() {
                shard_of[gi] = (s as u32, local as u32);
                if let Some(wt) = self.nodes[gi].next_activity() {
                    shard.wake.set(local, wt);
                }
            }
        }
        while let Some(due) = self.stimuli.peek_time() {
            if due > t_end {
                break;
            }
            let (due, (id, stim)) = self.stimuli.pop().expect("peeked");
            let (s, local) = shard_of[Self::idx(id)];
            shards[s as usize].push_stimulus(due, local as usize, stim);
        }
        (shards, shard_of)
    }

    /// Refresh one node's entry in its owning shard's wake calendar.
    fn rekey_sharded(shards: &mut [Shard], shard_of: &[(u32, u32)], node: &Node, gi: usize) {
        let (s, local) = shard_of[gi];
        match node.next_activity() {
            Some(wt) => shards[s as usize].wake.set(local as usize, wt),
            None => shards[s as usize].wake.remove(local as usize),
        }
    }

    /// Coordinator-side phase 1: deliveries due at exactly `t`, then
    /// stimuli left at the previous epoch's boundary (epochs consume
    /// interior stimuli themselves but stop strictly before their
    /// bound, preserving the deliveries-before-stimuli order here).
    fn apply_due_sharded(
        &mut self,
        t: SimTime,
        shards: &mut [Shard],
        shard_of: &[(u32, u32)],
    ) -> Result<(), NodeError> {
        while let Some(due) = self.deliveries.peek_time() {
            if due > t {
                break;
            }
            let (_, tx) = self.deliveries.pop().expect("peeked");
            for r in 0..self.topology.neighbours(tx.from).len() {
                let id = self.topology.neighbours(tx.from)[r];
                self.sync_node(Self::idx(id), t)?;
            }
            self.deliver(tx);
            for r in 0..self.topology.neighbours(tx.from).len() {
                let id = self.topology.neighbours(tx.from)[r];
                let gi = Self::idx(id);
                Self::rekey_sharded(shards, shard_of, &self.nodes[gi], gi);
            }
        }
        for s in 0..shards.len() {
            while let Some(&(due, local, stim)) = shards[s].stimuli.front() {
                if due > t {
                    break;
                }
                shards[s].pop_stimulus();
                let gi = shards[s].members[local];
                self.sync_node(gi, t)?;
                let id = self.nodes[gi].id();
                self.apply_stimulus(id, stim, due);
                Self::rekey_sharded(shards, shard_of, &self.nodes[gi], gi);
            }
        }
        self.expire_channel(t);
        Ok(())
    }

    /// Run every shard's epoch to `to` (on the pool when it helps) and
    /// merge the results at the barrier.
    fn run_epochs(&mut self, shards: &mut [Shard], to: SimTime) -> Result<(), NodeError> {
        if shards.len() > 1 && self.pool.parallelism() > 1 {
            self.pool.run_shards(&mut self.nodes, shards, to);
        } else {
            let base = self.nodes.as_mut_ptr();
            for shard in shards.iter_mut() {
                // SAFETY: shards own disjoint member index sets and run
                // one at a time here; `base` covers all of them.
                unsafe { shard.run_epoch(base, to) };
            }
        }
        self.barrier(shards)
    }

    /// Epoch barrier: flush shard traces, merge shard outputs into the
    /// global channel/calendar in a deterministic order, and propagate
    /// the lowest-node-index error, if any.
    fn barrier(&mut self, shards: &mut [Shard]) -> Result<(), NodeError> {
        let mut failed: Option<(usize, NodeError)> = None;
        let mut ran = 0;
        let mut merged: Vec<(u64, usize, NodeOutput)> = Vec::new();
        for shard in shards.iter_mut() {
            ran += std::mem::take(&mut shard.ran);
            for e in shard.trace.drain(..) {
                self.trace.record(e);
            }
            merged.append(&mut shard.outputs);
            if let Some((gi, e)) = shard.error.take() {
                if failed.as_ref().is_none_or(|(fi, _)| gi < *fi) {
                    failed = Some((gi, e));
                }
            }
        }
        self.note_window(ran);
        // Sort by output instant, then node index (stable, so one
        // node's outputs keep their chronological order). Everywhere
        // the global fold order is observable — FIFO ties in the
        // delivery calendar — this reproduces the sequential engines'
        // node-index fold order, because equal-length words that end
        // together also started together.
        merged.sort_by_key(|&(at, gi, _)| (at, gi));
        for (_, gi, output) in merged {
            let from = self.nodes[gi].id();
            self.fold_output(from, output);
        }
        self.trace.seal();
        match failed {
            Some((_, e)) => Err(e),
            None => Ok(()),
        }
    }

    /// Tail of a sharded run: bring every node to the horizon, then
    /// apply anything due at exactly `t_end` — the order the sequential
    /// engines use. Shard stimulus queues can only hold `t_end`-exact
    /// leftovers here (epochs consume everything earlier).
    fn finish_sharded(&mut self, shards: &mut [Shard], t_end: SimTime) -> Result<(), NodeError> {
        self.advance_all(t_end)?;
        self.process_due(t_end);
        for shard in shards.iter_mut() {
            while let Some((due, local, stim)) = shard.pop_stimulus() {
                debug_assert!(due == t_end, "interior stimuli are consumed by epochs");
                let id = self.nodes[shard.members[local]].id();
                self.apply_stimulus(id, stim, due);
            }
        }
        self.now = t_end;
        self.trace.seal();
        Ok(())
    }

    // ---- shared machinery ----

    /// Fold one node's window outputs into the channel, delivery
    /// calendar and trace (identical for every scheduler — trace byte
    /// equality depends on it).
    fn fold_outputs(&mut self, from: NodeId, outputs: Vec<NodeOutput>) {
        for output in outputs {
            self.fold_output(from, output);
        }
    }

    /// Fold a single node output (the sharded barrier merge interleaves
    /// outputs from different nodes, so it folds one at a time).
    fn fold_output(&mut self, from: NodeId, output: NodeOutput) {
        match output {
            NodeOutput::Transmitted { word, start, end } => {
                let tx = Transmission {
                    from,
                    word,
                    start,
                    end,
                };
                self.channel.transmit(tx);
                self.deliveries.schedule(end, tx);
                self.trace.record(TraceEvent {
                    at_ps: start.as_ps(),
                    node: from,
                    kind: TraceKind::Transmit { word },
                });
            }
            NodeOutput::LedWrite { value, at } => {
                self.trace.record(TraceEvent {
                    at_ps: at.as_ps(),
                    node: from,
                    kind: TraceKind::Led { value },
                });
            }
            NodeOutput::RadioModeChanged { .. } => {}
            NodeOutput::Died { at } => {
                self.trace.record(TraceEvent {
                    at_ps: at.as_ps(),
                    node: from,
                    kind: TraceKind::NodeDeath,
                });
            }
        }
    }

    /// Deliver transmissions and apply stimuli due at or before `t`
    /// (lockstep path: every node is already at `t`).
    fn process_due(&mut self, t: SimTime) {
        while let Some(due) = self.deliveries.peek_time() {
            if due > t {
                break;
            }
            let (_, tx) = self.deliveries.pop().expect("peeked");
            self.deliver(tx);
        }
        while let Some(due) = self.stimuli.peek_time() {
            if due > t {
                break;
            }
            let (due, (id, stimulus)) = self.stimuli.pop().expect("peeked");
            self.apply_stimulus(id, stimulus, due);
        }
        self.expire_channel(t);
    }

    /// Keep a couple of word-times of history for overlap checks.
    fn expire_channel(&mut self, t: SimTime) {
        let cutoff = SimTime::from_ps(t.as_ps().saturating_sub(SimDuration::from_ms(2).as_ps()));
        self.channel.expire(cutoff);
    }

    fn deliver(&mut self, tx: Transmission) {
        // Cached neighbour slices borrow `topology`; the loop mutates
        // only the disjoint `channel`/`nodes`/`trace` fields.
        let receivers = self.topology.neighbours(tx.from);
        for &id in receivers {
            // By symmetry, what `id` hears is exactly its neighbours.
            let audible = self.topology.neighbours(id);
            let clean = self.channel.is_clean(&tx, audible) && !self.channel.fades();
            let idx = Self::idx(id);
            if clean {
                if self.nodes[idx].deliver_rx(tx.word) {
                    self.channel.note_delivery();
                    self.trace.record(TraceEvent {
                        at_ps: tx.end.as_ps(),
                        node: id,
                        kind: TraceKind::Deliver {
                            word: tx.word,
                            from: tx.from,
                        },
                    });
                }
            } else {
                self.channel.note_collision();
                self.trace.record(TraceEvent {
                    at_ps: tx.end.as_ps(),
                    node: id,
                    kind: TraceKind::Collision { from: tx.from },
                });
            }
        }
    }

    fn apply_stimulus(&mut self, id: NodeId, stimulus: Stimulus, at: SimTime) {
        let idx = Self::idx(id);
        match stimulus {
            Stimulus::SensorIrq => {
                self.nodes[idx].trigger_sensor_irq();
            }
            Stimulus::SensorReading { id: sensor, value } => {
                self.nodes[idx].sensors_mut().set_reading(sensor, value);
            }
        }
        self.trace.record(TraceEvent {
            at_ps: at.as_ps(),
            node: id,
            kind: TraceKind::Stimulus,
        });
    }
}

/// One spatial shard of a [`Scheduler::Sharded`] run: a group of grid
/// cells' nodes with a private wake calendar, advanced independently of
/// every other shard inside each conservative epoch. All cross-shard
/// interaction flows through the coordinator at epoch barriers.
pub(crate) struct Shard {
    /// Global node indices owned by this shard (grid-cell order).
    members: Vec<usize>,
    /// Wake calendar keyed by position in `members`.
    wake: WakeQueue,
    /// This run's stimuli for member nodes — `(due, member position,
    /// stimulus)` — ascending by due time (global-calendar pop order).
    stimuli: VecDeque<(SimTime, usize, Stimulus)>,
    /// Pending-stimulus count per member position: lets `run_member`
    /// skip the queue scan for the (vast) majority of wakes whose node
    /// has no stimulus left this run.
    pending_stimuli: Vec<u32>,
    /// Outputs produced this epoch: `(output instant ps, global node
    /// index, output)`; the barrier merge sorts by that pair.
    outputs: Vec<(u64, usize, NodeOutput)>,
    /// Trace events produced this epoch (stimulus records), flushed
    /// into the global trace at the barrier.
    trace: Vec<TraceEvent>,
    /// Members advanced this epoch (telemetry).
    ran: usize,
    /// First node error this epoch, with the global node index.
    error: Option<(usize, NodeError)>,
}

impl Shard {
    fn new(members: Vec<usize>) -> Shard {
        Shard {
            pending_stimuli: vec![0; members.len()],
            members,
            wake: WakeQueue::new(),
            stimuli: VecDeque::new(),
            outputs: Vec::new(),
            trace: Vec::new(),
            ran: 0,
            error: None,
        }
    }

    /// Enqueue one stimulus (entries arrive in ascending due order).
    fn push_stimulus(&mut self, due: SimTime, local: usize, stim: Stimulus) {
        self.pending_stimuli[local] += 1;
        self.stimuli.push_back((due, local, stim));
    }

    /// Dequeue the earliest pending stimulus.
    fn pop_stimulus(&mut self) -> Option<(SimTime, usize, Stimulus)> {
        let entry = self.stimuli.pop_front()?;
        self.pending_stimuli[entry.1] -= 1;
        Some(entry)
    }

    /// Advance this shard's due members up to (but excluding) `to`.
    ///
    /// `to` is a conservative bound chosen by the coordinator: no radio
    /// delivery can become due strictly inside the epoch, so the shard
    /// needs nothing from the rest of the network until the barrier.
    /// Work falling exactly *at* `to` (wakes, stimuli) is left for the
    /// next epoch's phase 1, so deliveries at `to` keep the sequential
    /// deliveries-before-stimuli-before-execution order.
    ///
    /// # Safety
    ///
    /// `base` must point at the simulator's node slice, every index in
    /// `members` must be owned by this shard alone for the duration of
    /// the call, and the caller must not touch those nodes until the
    /// epoch completes.
    pub(crate) unsafe fn run_epoch(&mut self, base: *mut Node, to: SimTime) {
        while self.error.is_none() {
            let wake_t = self.wake.peek().map(|(wt, _)| wt).filter(|&wt| wt < to);
            let stim_t = self.stimuli.front().map(|s| s.0).filter(|&st| st < to);
            match (wake_t, stim_t) {
                (None, None) => return,
                // Stimuli win ties: the sequential engines apply a
                // stimulus due at `t` before running the batch due at
                // `t`.
                (w, Some(st)) if w.is_none_or(|wt| st <= wt) => {
                    let (due, local, stim) = self.pop_stimulus().expect("peeked");
                    unsafe { self.apply_stimulus(base, due, local, stim) };
                }
                _ => {
                    let (_, local) = self.wake.pop().expect("peeked");
                    unsafe { self.run_member(base, local, to) };
                }
            }
        }
    }

    /// Run one member to the epoch bound, collecting its outputs.
    ///
    /// A pending stimulus for this member caps its advance below the
    /// bound: the sequential engines end their window at the stimulus
    /// instant and interrupt the node there, so running past it would
    /// deliver the interrupt late in node-local time. The stimulus
    /// queue is time-ordered, so the first entry for this member is
    /// its earliest.
    unsafe fn run_member(&mut self, base: *mut Node, local: usize, to: SimTime) {
        let gi = self.members[local];
        // The scan is O(queue), but it only runs for members that
        // still have a stimulus pending this run — for everyone else
        // the per-member count short-circuits it.
        let cap = if self.pending_stimuli[local] == 0 {
            to
        } else {
            self.stimuli
                .iter()
                .find(|s| s.1 == local)
                .map_or(to, |s| s.0.min(to))
        };
        // SAFETY: `gi` is a member index, owned by this shard alone.
        let node = unsafe { &mut *base.add(gi) };
        self.ran += 1;
        match node.run_until(cap) {
            Ok(outputs) => {
                for output in outputs {
                    let at = match &output {
                        NodeOutput::Transmitted { start, .. } => start.as_ps(),
                        NodeOutput::LedWrite { at, .. } => at.as_ps(),
                        NodeOutput::Died { at } => at.as_ps(),
                        NodeOutput::RadioModeChanged { .. } => continue,
                    };
                    self.outputs.push((at, gi, output));
                }
                self.rekey(node, local);
            }
            Err(e) => self.error = Some((gi, e)),
        }
    }

    /// Apply one stimulus at its exact due instant.
    unsafe fn apply_stimulus(
        &mut self,
        base: *mut Node,
        due: SimTime,
        local: usize,
        stim: Stimulus,
    ) {
        let gi = self.members[local];
        // SAFETY: `gi` is a member index, owned by this shard alone.
        let node = unsafe { &mut *base.add(gi) };
        // Sync the target's clock to the stimulus instant. `due` is no
        // later than any member wake (the epoch loop always picks the
        // minimum instant), so this executes nothing.
        match node.run_until(due) {
            Ok(outputs) => {
                for output in outputs {
                    // As in `NetworkSim::sync_node`: battery death is
                    // the one output a pure clock sync can surface.
                    debug_assert!(
                        matches!(output, NodeOutput::Died { .. }),
                        "clock sync must not produce outputs (beyond battery death)"
                    );
                    if let NodeOutput::Died { at } = output {
                        self.outputs.push((at.as_ps(), gi, output));
                    }
                }
            }
            Err(e) => {
                self.error = Some((gi, e));
                return;
            }
        }
        match stim {
            Stimulus::SensorIrq => {
                node.trigger_sensor_irq();
            }
            Stimulus::SensorReading { id, value } => node.sensors_mut().set_reading(id, value),
        }
        self.trace.push(TraceEvent {
            at_ps: due.as_ps(),
            node: node.id(),
            kind: TraceKind::Stimulus,
        });
        self.rekey(node, local);
    }

    /// Refresh one member's wake-calendar entry from its node state.
    fn rekey(&mut self, node: &Node, local: usize) {
        match node.next_activity() {
            Some(wt) => self.wake.set(local, wt),
            None => self.wake.remove(local),
        }
    }
}
