//! The network simulator: one sleep-aware, event-driven engine over a
//! single wake calendar, plus a lockstep reference path.
//!
//! SNAP/LE's thesis is that an event-driven node does *zero* work while
//! idle — the simulator mirrors the hardware. A **wake calendar**
//! ([`dess::WakeQueue`]) keyed by node index holds every node's
//! `next_activity` instant, and the engine advances only the nodes that
//! are due, so simulation cost is proportional to *active* nodes, not
//! node count. Sleeping nodes are skipped entirely and their clocks
//! lazily fast-forwarded when an event finally reaches them.
//!
//! The calendar is kept from one `run_until` call to the next, so a run
//! sliced into many calls pays for its wakes, not for rebuilding
//! per-node state on every call. What remains O(nodes) per call is the
//! closing clock sync: lockstep semantics have every node's clock read
//! the call's end instant. The kept state is a cache of what the nodes
//! already determine, and every call that could make it stale drops it
//! (see `WakeState`).
//!
//! The engine advances through conservative *epochs*: since a radio
//! word takes one full word time (≈833 µs at 19.2 kbps) to serialize,
//! no transmission started after instant `t` can be delivered before
//! `t + word_time`, so the due nodes can run to
//! `min(t + word_time, next scheduled delivery)` without hearing from
//! each other. Their transmissions enter the delivery calendar at the
//! epoch barrier. Stimuli wait in the stimulus calendar and enter the
//! engine one epoch at a time: the epoch applies those due inside it,
//! and phase 1 applies those due exactly at an epoch's start or at the
//! horizon, after that instant's deliveries.
//!
//! The original lockstep scheduler (advance *every* node each round)
//! survives as [`Scheduler::Lockstep`], the reference for the
//! equivalence property tests. Both engines produce bit-identical
//! traces, energy totals and architectural state. The invariant that
//! makes this hold across *different* window/epoch boundaries: every
//! delivery and stimulus is applied at its exact due instant, to a node
//! synced to exactly that instant; between applications a node's
//! evolution is a pure function of its own state (splitting an idle
//! stretch at any set of interior deadlines is bit-identical — no
//! energy accrues while asleep and timer expiries are never skipped);
//! channel interaction (collision checks, fade draws, counters) happens
//! only at application, in the delivery calendar's deterministic
//! `(time, insertion)` order; and the trace is canonically re-ordered
//! chunk by chunk ([`Trace::seal`]), so recording order within a window
//! is free. A run that faults reports the earliest fault, ties broken
//! by node index, under every scheduler.

use crate::channel::{Channel, Transmission};
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

/// The shard count a new simulator stores (see
/// [`NetworkSim::set_shards`]). No engine reads it; snapshots store the
/// count, and snapbench's grid fleets name this constant.
pub const DEFAULT_SHARDS: usize = 8;

/// A fleet size that snapbench's workload labels name. No engine reads
/// it: every fleet size runs the one event-driven engine.
pub const AUTO_SHARDED_THRESHOLD: usize = 100_000;

/// Node count at which a `Full` trace is considered a mistake: the
/// simulator switches to [`TraceMode::CountOnly`] (unless the mode was
/// set explicitly) and logs loudly either way.
const FULL_TRACE_NODE_LIMIT: usize = 10_000;

/// A node fault: its instant, the failing node's index, the error.
type Fault = (SimTime, usize, NodeError);

/// The fault `e` from node `index`. Its instant is the one `RadioBusy`
/// carries, else the node's clock when its `run_until` returned `e`.
fn fault(node: &Node, index: usize, e: NodeError) -> Fault {
    let at = match e {
        NodeError::RadioBusy { at, .. } => at,
        _ => node.now(),
    };
    (at, index, e)
}

/// Keep the earlier of two faults, ties going to the lower node index:
/// the one every scheduler reports.
fn keep_earliest(slot: &mut Option<Fault>, f: Fault) {
    if slot.as_ref().is_none_or(|g| (f.0, f.1) < (g.0, g.1)) {
        *slot = Some(f);
    }
}

/// Which scheduling strategy [`NetworkSim::run_until`] uses.
///
/// The discriminants are pinned: snapshots store them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduler {
    /// Advance every node every round (the original O(nodes)-per-round
    /// scheduler; the reference implementation).
    Lockstep = 0,
    /// The event-driven engine: one wake calendar advances only the
    /// nodes that are due (cost proportional to active nodes).
    EventDriven = 1,
    /// The event-driven engine. Snapshots and scenario files that name
    /// this variant still load.
    Sharded = 2,
    /// The event-driven engine. The default.
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
    pub(crate) scheduler: Scheduler,
    pub(crate) num_shards: usize,
    /// Whether the caller picked the trace mode explicitly (suppresses
    /// the large-fleet downgrade in [`NetworkSim::guard_trace_mode`]).
    pub(crate) trace_mode_explicit: bool,
    /// When telemetry is on: distribution of nodes advanced per
    /// scheduler window or epoch, and every node gets per-dispatch
    /// sampling.
    window_activity: Option<Histogram>,
    /// The event-driven engine's state, kept from one `run_until` call
    /// to the next so that a call costs what its wakes cost. `None`
    /// until an event-driven run builds it; dropped by every call that
    /// could make it stale (see [`WakeState`]).
    wakes: Option<WakeState>,
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
            scheduler: Scheduler::default(),
            num_shards: DEFAULT_SHARDS,
            trace_mode_explicit: false,
            window_activity: None,
            wakes: None,
        }
    }

    /// Turn on the observability layer: per-dispatch handler sampling
    /// on every node (current and future) and the per-window (or
    /// per-epoch) active-node histogram. Observation only — simulated
    /// behaviour, timing and energy are unchanged (the determinism
    /// suites compare sampled and unsampled runs).
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

    /// Record how many nodes a lockstep window or an epoch advanced.
    fn note_window(&mut self, active: usize) {
        if let Some(h) = &mut self.window_activity {
            h.record(active as f64);
        }
    }

    /// Select the scheduling strategy (default: [`Scheduler::Auto`]).
    /// All strategies produce bit-identical results; lockstep exists as
    /// the reference, the other three run the event-driven engine.
    pub fn set_scheduler(&mut self, scheduler: Scheduler) {
        self.scheduler = scheduler;
    }

    /// Store a shard count (default: [`DEFAULT_SHARDS`]), clamped to at
    /// least 1. No engine reads it; snapshots store it, so a restored
    /// fleet re-encodes to the bytes it was read from.
    pub fn set_shards(&mut self, shards: usize) {
        self.num_shards = shards.max(1);
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
        self.wakes = None;
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
    /// cache warmed) exactly once; every clone shares the decode cache
    /// and the instruction and data memory pages copy-on-write, so a
    /// mostly-idle million-node fleet costs per-node *state* (registers,
    /// radio, timers) plus the 512 B pages each node writes, not
    /// per-node memory images. Positions are placed through
    /// [`Topology::place_many`] (batched neighbour construction).
    /// Returns the new ids in `positions` order.
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
        self.wakes = None;
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
        // Collect first: a filtered iterator's size hint is 0, and a
        // vector grown by doubling ends with up to twice the slots.
        let positions: Vec<Position> = positions.into_iter().collect();
        self.nodes.reserve_exact(positions.len());
        let mut placed = Vec::with_capacity(positions.len());
        for position in positions {
            let id = NodeId(self.nodes.len() as u32 + 1);
            let mut node = template.clone_with_id(id);
            if telemetry {
                node.cpu_mut()
                    .enable_sampling(snap_telemetry::DEFAULT_RETAIN);
            }
            self.nodes.push(node);
            placed.push((id, position));
        }
        let ids = placed.iter().map(|&(id, _)| id).collect();
        self.topology.place_many(placed);
        ids
    }

    /// Add an ATmega-class mote at `position`. The core arrives fully
    /// programmed (see `atmega::tinyos`); its SPI-radio traffic goes on
    /// the same air, calendar and trace as every SNAP transmission.
    /// AVR motes carry no SNAP dispatch sampler — telemetry reports
    /// them through the kind-aware node metrics instead.
    pub fn add_avr_node(&mut self, core: AvrCore, position: Position) -> NodeId {
        self.wakes = None;
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
        self.wakes = None;
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
        self.wakes = None;
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

    /// Mutable access to a node (fixtures: sensors, etc.). A change
    /// through it can move the node's next activity, so the
    /// event-driven engine rebuilds its wake calendar on the next run.
    ///
    /// # Panics
    ///
    /// Panics for unknown ids.
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        self.wakes = None;
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
    /// Propagates the earliest [`NodeError`] from any node (ties go to
    /// the lower node index), the same one under every scheduler.
    pub fn run_until(&mut self, t_end: SimTime) -> Result<(), NodeError> {
        self.guard_trace_mode();
        match self.scheduler {
            Scheduler::Lockstep => {
                // Lockstep moves nodes without the calendars.
                self.wakes = None;
                self.run_lockstep(t_end)
            }
            _ => self.run_event_driven(t_end),
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

    /// Advance every node to `deadline` in node-index order, folding
    /// each node's outputs into the channel/trace before running the
    /// next. Folding touches the channel, delivery calendar and trace,
    /// never another node, so it may interleave with the runs.
    fn advance_all(&mut self, deadline: SimTime) -> Result<(), NodeError> {
        let mut failed = None;
        for i in 0..self.nodes.len() {
            match self.nodes[i].run_until(deadline) {
                Ok(outputs) => {
                    let from = self.nodes[i].id();
                    self.fold_outputs(from, outputs);
                }
                Err(e) => keep_earliest(&mut failed, fault(&self.nodes[i], i, e)),
            }
        }
        failed.map_or(Ok(()), |(_, _, e)| Err(e))
    }

    /// Bring a node that may have been skipped (lazily-synced clock) to
    /// `to` before an event is posted to it, exactly as the lockstep
    /// `advance_all` would have. For a halted or quietly sleeping node
    /// this is a cheap no-op / `advance_idle`; it can execute no
    /// instructions and produce no outputs, because any node with work
    /// before `to` already ran in an earlier epoch. A node whose clock
    /// already reads `to` is left alone: it may hold a word or stimulus
    /// posted at `to`, and running it again would wake it before the
    /// rest of that instant's work is posted, which lockstep never does.
    fn sync_node(&mut self, i: usize, to: SimTime) -> Result<(), NodeError> {
        if self.nodes[i].now() >= to {
            return Ok(());
        }
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

    // ---- event-driven engine (conservative lookahead epochs) ----

    fn run_event_driven(&mut self, t_end: SimTime) -> Result<(), NodeError> {
        // The kept state goes back only when the call succeeds: a
        // fault can leave a node its calendar entry does not describe.
        let mut wakes = self
            .wakes
            .take()
            .unwrap_or_else(|| WakeState::new(&self.nodes));
        self.run_epochs_until(&mut wakes, t_end)?;
        self.wakes = Some(wakes);
        Ok(())
    }

    fn run_epochs_until(&mut self, w: &mut WakeState, t_end: SimTime) -> Result<(), NodeError> {
        loop {
            // The earliest instant anything can happen, over the
            // delivery and stimulus calendars and the wakes (the
            // epoch's stimulus queue is empty between epochs).
            let calendars = Self::min_time(self.deliveries.peek_time(), self.stimuli.peek_time());
            let first = Self::min_time(calendars, w.wake.peek().map(|(t, _)| t));
            let Some(t) = first.filter(|&t| t < t_end) else {
                return self.finish_epochs(w, t_end);
            };
            // Phase 1: deliveries, then stimuli, due at exactly `t` —
            // the lockstep order.
            self.apply_due(t, w)?;
            // Phase 2: the due nodes run to the conservative epoch
            // bound. A word needs `word_floor` to serialize, so no
            // transmission started after `t` can be delivered before
            // `t + word_floor`; already-scheduled deliveries cap the
            // epoch explicitly. Within the bound nodes cannot affect
            // each other, so each runs on its own.
            let next_delivery = self.deliveries.peek_time().unwrap_or(t_end);
            let to = (t + w.word_floor).min(next_delivery).min(t_end);
            self.hand_out_stimuli(w, to);
            let ran = w.run_epoch(&mut self.nodes, &mut self.trace, to);
            self.note_window(ran);
            self.barrier(w)?;
            self.now = to;
        }
    }

    /// Hand the epoch the stimuli due strictly before its bound `to`,
    /// in calendar pop order. A stimulus due exactly at `to` stays in
    /// the calendar for the next phase 1 or the tail, which apply it
    /// after that instant's deliveries.
    fn hand_out_stimuli(&mut self, w: &mut WakeState, to: SimTime) {
        while self.stimuli.peek_time().is_some_and(|due| due < to) {
            let (due, (id, stim)) = self.stimuli.pop().expect("peeked");
            w.push_stimulus(due, Self::idx(id), stim);
        }
    }

    /// Apply everything due at or before `t` on clocks synced to `t`:
    /// deliveries, then stimuli — the lockstep order. Phase 1 runs this
    /// at every epoch's start and the tail at the horizon (where every
    /// clock already reads `t`, so the syncs do nothing). Every node
    /// whose next activity moved is re-keyed.
    fn apply_due(&mut self, t: SimTime, w: &mut WakeState) -> Result<(), NodeError> {
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
            for &id in self.topology.neighbours(tx.from) {
                w.rekey(&self.nodes[Self::idx(id)], Self::idx(id));
            }
        }
        while let Some(due) = self.stimuli.peek_time() {
            if due > t {
                break;
            }
            let (due, (id, stim)) = self.stimuli.pop().expect("peeked");
            let i = Self::idx(id);
            self.sync_node(i, t)?;
            stimulate(&mut self.nodes[i], &mut self.trace, stim, due);
            w.rekey(&self.nodes[i], i);
        }
        self.expire_channel(t);
        Ok(())
    }

    /// Epoch barrier: fold the epoch's outputs into the channel and
    /// delivery calendar in a deterministic order, and propagate the
    /// epoch's earliest fault, if any.
    fn barrier(&mut self, w: &mut WakeState) -> Result<(), NodeError> {
        let failed = w.error.take();
        debug_assert!(
            failed.is_some() || w.stimuli.is_empty(),
            "an epoch without a fault applies every stimulus it was handed"
        );
        // Sort by output instant, then node index (stable, so one
        // node's outputs keep their chronological order). Everywhere
        // the fold order is observable — FIFO ties in the delivery
        // calendar — this reproduces lockstep's node-index fold order,
        // because equal-length words that end together also started
        // together.
        w.outputs.sort_by_key(|&(at, i, _)| (at, i));
        for (_, i, output) in w.outputs.drain(..) {
            let from = self.nodes[i].id();
            self.fold_output(from, output);
        }
        self.trace.seal();
        failed.map_or(Ok(()), |(_, _, e)| Err(e))
    }

    /// Tail of an event-driven run: bring every node to the horizon,
    /// then apply anything due at exactly `t_end` on clocks already
    /// there — the order lockstep uses. Every node whose next activity
    /// moved is re-keyed as it goes, so the calendar leaves the call
    /// exact.
    fn finish_epochs(&mut self, w: &mut WakeState, t_end: SimTime) -> Result<(), NodeError> {
        let mut failed = None;
        for i in 0..self.nodes.len() {
            // Most nodes sleep past the horizon: their clocks move and
            // nothing else does, calendar entries included.
            if w.wake.time_of(i).is_some_and(|t| t > t_end) && self.nodes[i].sleep_until(t_end) {
                continue;
            }
            match self.nodes[i].run_until(t_end) {
                Ok(outputs) => {
                    let from = self.nodes[i].id();
                    self.fold_outputs(from, outputs);
                    w.rekey(&self.nodes[i], i);
                }
                Err(e) => keep_earliest(&mut failed, fault(&self.nodes[i], i, e)),
            }
        }
        if let Some((_, _, e)) = failed {
            return Err(e);
        }
        self.apply_due(t_end, w)?;
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

    /// Fold a single node output (the epoch barrier interleaves outputs
    /// from different nodes, so it folds one at a time).
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
    /// (every node is already at `t`: a lockstep round). The
    /// event-driven engine has its own copy, `apply_due`, which also
    /// syncs and re-keys; the reference shares no code with what it
    /// checks.
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
            let (due, (id, stim)) = self.stimuli.pop().expect("peeked");
            stimulate(&mut self.nodes[Self::idx(id)], &mut self.trace, stim, due);
        }
        self.expire_channel(t);
    }

    /// Keep a couple of word-times of history for overlap checks.
    fn expire_channel(&mut self, t: SimTime) {
        let cutoff = SimTime::from_ps(t.as_ps().saturating_sub(SimDuration::from_ms(2).as_ps()));
        self.channel.expire(cutoff);
    }

    fn deliver(&mut self, tx: Transmission) {
        let rivals = self.channel.rivals(&tx);
        // Cached neighbour slices borrow `topology`; the loop mutates
        // only the disjoint `channel`/`nodes`/`trace` fields.
        let receivers = self.topology.neighbours(tx.from);
        for &id in receivers {
            // By symmetry, what `id` hears is exactly its neighbours.
            let audible = self.topology.neighbours(id);
            let clean = Channel::is_clean(&rivals, audible) && !self.channel.fades();
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
}

/// Apply `stimulus` to `node` at `at` and record it: how every
/// scheduler applies a stimulus.
fn stimulate(node: &mut Node, trace: &mut Trace, stimulus: Stimulus, at: SimTime) {
    match stimulus {
        Stimulus::SensorIrq => {
            node.trigger_sensor_irq();
        }
        Stimulus::SensorReading { id, value } => node.sensors_mut().set_reading(id, value),
    }
    trace.record(TraceEvent {
        at_ps: at.as_ps(),
        node: node.id(),
        kind: TraceKind::Stimulus,
    });
}

/// An epoch output: `(output instant ps, node index, output)`. The
/// barrier sorts by that pair.
type EpochOutput = (u64, usize, NodeOutput);

/// The event-driven engine's state between `run_until` calls: a cache
/// of values the node state already determines, so it is never
/// encoded. At every epoch barrier that finds no fault, and between
/// calls:
///
/// * the epoch's stimulus queue is empty, and its per-node counts are
///   zero (an epoch is handed only the stimuli due inside it, and
///   applies them all);
/// * the epoch output buffer is empty.
///
/// Between calls, also: every calendar entry equals its node's
/// `next_activity()`, and a node without one has no entry.
///
/// Each call restores these before it returns `Ok`; the calls that
/// could break them from outside (adding nodes, `node_mut`,
/// `set_battery`, a lockstep run, a call that faults) drop the state,
/// and the next event-driven run rebuilds it exactly as a fresh one
/// would.
struct WakeState {
    /// Wake calendar keyed by node index.
    wake: WakeQueue,
    /// This epoch's stimuli — `(due, node index, stimulus)` — ascending
    /// by due time (stimulus-calendar pop order).
    stimuli: VecDeque<(SimTime, usize, Stimulus)>,
    /// Pending-stimulus count per node index: lets `run_node` skip the
    /// queue scan for the (vast) majority of wakes whose node has no
    /// stimulus left this epoch.
    pending_stimuli: Vec<u32>,
    /// The epoch lookahead: the shortest radio word time in the fleet.
    word_floor: SimDuration,
    /// Outputs of the current epoch. The barrier drains it in place, so
    /// it keeps its capacity.
    outputs: Vec<EpochOutput>,
    /// Earliest fault this epoch.
    error: Option<Fault>,
}

impl WakeState {
    /// Key every node's wake and measure the epoch lookahead.
    fn new(nodes: &[Node]) -> WakeState {
        let mut w = WakeState {
            wake: WakeQueue::with_keys(nodes.len()),
            stimuli: VecDeque::new(),
            pending_stimuli: vec![0; nodes.len()],
            word_floor: nodes
                .iter()
                .map(|n| n.radio().word_time())
                .min()
                .unwrap_or(RUN_QUANTUM),
            outputs: Vec::new(),
            error: None,
        };
        for (i, node) in nodes.iter().enumerate() {
            w.rekey(node, i);
        }
        w
    }

    /// Enqueue one stimulus (entries arrive in ascending due order).
    fn push_stimulus(&mut self, due: SimTime, i: usize, stim: Stimulus) {
        self.pending_stimuli[i] += 1;
        self.stimuli.push_back((due, i, stim));
    }

    /// Dequeue the earliest pending stimulus.
    fn pop_stimulus(&mut self) -> Option<(SimTime, usize, Stimulus)> {
        let entry = self.stimuli.pop_front()?;
        self.pending_stimuli[entry.1] -= 1;
        Some(entry)
    }

    /// Advance the due nodes up to (but excluding) `to`, applying the
    /// epoch's stimuli on the way. Stimulus records go to `trace` and
    /// node outputs to the output buffer. Returns how many node runs
    /// the epoch made (telemetry).
    ///
    /// `to` is a conservative bound: no radio delivery can become due
    /// strictly inside the epoch, so the nodes need nothing from one
    /// another until the barrier. Work falling exactly *at* `to`
    /// (wakes, stimuli) is left for the next epoch's phase 1, so
    /// deliveries at `to` keep lockstep's
    /// deliveries-before-stimuli-before-execution order.
    ///
    /// After a fault the epoch goes on with the work due at or before
    /// the fault instant: a node never faults before it wakes, so only
    /// those nodes can fault earlier (or tie with a lower index).
    fn run_epoch(&mut self, nodes: &mut [Node], trace: &mut Trace, to: SimTime) -> usize {
        let mut ran = 0;
        loop {
            let fault_at = self.error.as_ref().map(|f| f.0);
            let due = |t: SimTime| t < to && fault_at.is_none_or(|at| t <= at);
            let wake_t = self.wake.peek().map(|(wt, _)| wt).filter(|&wt| due(wt));
            let stim_t = self.stimuli.front().map(|s| s.0).filter(|&st| due(st));
            match (wake_t, stim_t) {
                (None, None) => return ran,
                // Stimuli win ties: lockstep applies a stimulus due at
                // `t` before running the window that starts at `t`.
                (w, Some(st)) if w.is_none_or(|wt| st <= wt) => {
                    let (due, i, stim) = self.pop_stimulus().expect("peeked");
                    self.apply_stimulus(nodes, trace, due, i, stim);
                }
                // The node stays in the calendar while it runs and is
                // re-keyed in place afterwards: one sift, not a pop and
                // a push.
                _ => {
                    let (_, i) = self.wake.peek().expect("peeked");
                    self.run_node(nodes, i, to);
                    ran += 1;
                }
            }
        }
    }

    /// Run node `i` to the epoch bound, collecting its outputs.
    ///
    /// A pending stimulus for this node caps its advance below the
    /// bound: lockstep ends its window at the stimulus instant and
    /// interrupts the node there, so running past it would deliver the
    /// interrupt late in node-local time. The stimulus queue is
    /// time-ordered, so the first entry for this node is its earliest.
    fn run_node(&mut self, nodes: &mut [Node], i: usize, to: SimTime) {
        // The scan is O(queue), which holds one epoch's stimuli, and it
        // only runs for nodes that still have a stimulus pending — for
        // everyone else the per-node count short-circuits it.
        let cap = if self.pending_stimuli[i] == 0 {
            to
        } else {
            self.stimuli
                .iter()
                .find(|s| s.1 == i)
                .map_or(to, |s| s.0.min(to))
        };
        let node = &mut nodes[i];
        match node.run_until(cap) {
            Ok(out) => {
                for output in out {
                    let at = match &output {
                        NodeOutput::Transmitted { start, .. } => start.as_ps(),
                        NodeOutput::LedWrite { at, .. } => at.as_ps(),
                        NodeOutput::Died { at } => at.as_ps(),
                    };
                    self.outputs.push((at, i, output));
                }
                self.rekey(node, i);
            }
            Err(e) => {
                // Out of the calendar, so the epoch's remaining work
                // does not pick the faulted node again.
                self.wake.remove(i);
                keep_earliest(&mut self.error, fault(node, i, e));
            }
        }
    }

    /// Apply one stimulus at its exact due instant.
    fn apply_stimulus(
        &mut self,
        nodes: &mut [Node],
        trace: &mut Trace,
        due: SimTime,
        i: usize,
        stim: Stimulus,
    ) {
        let node = &mut nodes[i];
        // Sync the target's clock to the stimulus instant. `due` is no
        // later than any wake (the epoch loop always picks the minimum
        // instant), so this executes nothing.
        match node.run_until(due) {
            Ok(out) => {
                for output in out {
                    // As in `NetworkSim::sync_node`: battery death is
                    // the one output a pure clock sync can surface.
                    debug_assert!(
                        matches!(output, NodeOutput::Died { .. }),
                        "clock sync must not produce outputs (beyond battery death)"
                    );
                    if let NodeOutput::Died { at } = output {
                        self.outputs.push((at.as_ps(), i, output));
                    }
                }
            }
            Err(e) => {
                keep_earliest(&mut self.error, fault(node, i, e));
                return;
            }
        }
        stimulate(node, trace, stim, due);
        self.rekey(node, i);
    }

    /// Refresh node `i`'s wake-calendar entry from its state, touching
    /// the heap only when the instant moved.
    fn rekey(&mut self, node: &Node, i: usize) {
        let next = node.next_activity();
        if self.wake.time_of(i) == next {
            return;
        }
        match next {
            Some(wt) => self.wake.set(i, wt),
            None => self.wake.remove(i),
        }
    }
}
