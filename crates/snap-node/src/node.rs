//! The node event loop: core + radio + sensors + port, in lock-step
//! simulated time.
//!
//! A [`Node`] comes in three kinds ([`NodeKind`]): SNAP/LE sensor
//! nodes, ATmega-baseline motes ([`crate::avr::AvrMote`]), and
//! mains-powered SNAP gateways that log every word they hear into an
//! uplink buffer for the serving layer. All three satisfy the same
//! scheduler contract (`next_activity` / `run_until` / `deliver_rx`),
//! so the network layer treats a heterogeneous fleet uniformly.
//!
//! Nodes may carry a finite [`BatteryConfig`]; when the budget runs
//! out the node dies at a deterministic instant (see
//! [`Node::run_until`] and `snap_energy::battery` for the invariant).

use crate::avr::{AvrMote, AVR_BIT_RATE, AVR_CYCLE_PS};
use crate::led::LedPort;
use crate::radio::Radio;
use crate::sensor::SensorBank;
use atmega::{AvrCore, AvrCoreError};
use dess::{Calendar, SimDuration, SimTime};
use snap_asm::Program;
use snap_core::{CoreConfig, CoreState, EnvAction, Processor, StepError};
use snap_energy::{BatteryConfig, Energy};
use snap_isa::Word;
use snap_snapshot::{Decode, Encode, Reader, SnapshotError, Writer};
use std::fmt;

/// Identifies a node within a network simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Node configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeConfig {
    /// The processor configuration.
    pub core: CoreConfig,
    /// Radio bit rate in bits/second.
    pub radio_bit_rate: f64,
    /// This node's identity.
    pub id: NodeId,
    /// Safety cap on instructions per [`Node::run_until`] call; a runaway
    /// handler (infinite loop) trips [`NodeError::StepLimit`] instead of
    /// hanging the simulation.
    pub step_limit: u64,
}

impl Default for NodeConfig {
    fn default() -> NodeConfig {
        NodeConfig {
            core: CoreConfig::default(),
            radio_bit_rate: crate::radio::DEFAULT_BIT_RATE,
            id: NodeId(0),
            step_limit: 10_000_000,
        }
    }
}

/// What hardware a [`Node`] runs, and its role in the fleet.
///
/// The discriminants are pinned: snapshots store them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NodeKind {
    /// A SNAP/LE sensor node (the paper's processor).
    #[default]
    Snap = 0,
    /// An ATmega-baseline mote: an AVR core running the TinyOS-like
    /// runtime, adapted to the node contract by [`crate::avr::AvrMote`].
    Avr = 1,
    /// A mains-powered SNAP node that bridges radio traffic upstream:
    /// every word it hears is logged to [`Node::uplink`]. Gateways
    /// never carry a battery budget.
    Gateway = 2,
}

impl Encode for NodeKind {
    fn encode(&self, w: &mut Writer) {
        w.u8(*self as u8);
    }
}

impl Decode for NodeKind {
    fn decode(r: &mut Reader) -> Result<NodeKind, SnapshotError> {
        let variants = [NodeKind::Snap, NodeKind::Avr, NodeKind::Gateway];
        r.variant(&variants, "node kind discriminant")
    }
}

/// The processor behind a node: kind-level dispatch lives here so the
/// rest of the node (radio, sensors, calendar) stays shared.
///
/// Deliberately not boxed: this enum sits on every node of up-to-1M
/// fleets and the SNAP core is the common case — an AVR mote wastes
/// the size difference, but boxing would put every SNAP core behind a
/// pointer chase on the hottest dispatch path.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub(crate) enum NodeCpu {
    Snap(Processor),
    Avr(AvrMote),
}

/// One radio word a gateway heard, queued for the uplink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UplinkFrame {
    /// When the word finished arriving at the gateway.
    pub at: SimTime,
    /// The word.
    pub word: Word,
}

impl Encode for UplinkFrame {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.at.as_ps());
        w.u16(self.word);
    }
}

impl Decode for UplinkFrame {
    fn decode(r: &mut Reader) -> Result<UplinkFrame, SnapshotError> {
        Ok(UplinkFrame {
            at: SimTime::from_ps(r.u64()?),
            word: r.u16()?,
        })
    }
}

/// Externally visible things a node did during a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeOutput {
    /// A radio word went on the air from `start` to `end`.
    Transmitted {
        /// The transmitted word.
        word: Word,
        /// Start of serialization.
        start: SimTime,
        /// End of serialization (when peers hear it).
        end: SimTime,
    },
    /// The output port changed.
    LedWrite {
        /// The driven value.
        value: u16,
        /// When.
        at: SimTime,
    },
    /// The radio was enabled or disabled.
    RadioModeChanged {
        /// `true` = receiver on.
        enabled: bool,
        /// When.
        at: SimTime,
    },
    /// The node's battery budget ran out: it ceased operating at `at`
    /// and will never produce activity again. Emitted exactly once.
    Died {
        /// The exact exhaustion instant (scheduler-invariant; see
        /// `snap_energy::battery`).
        at: SimTime,
    },
}

/// Node-level errors.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeError {
    /// The core faulted.
    Core {
        /// Which node.
        node: NodeId,
        /// The underlying fault.
        error: StepError,
    },
    /// A handler issued a radio TX while a word was still on the air
    /// (the MAC must wait for `RadioTxDone`).
    RadioBusy {
        /// Which node.
        node: NodeId,
        /// When.
        at: SimTime,
    },
    /// The instruction budget of a single awake stretch was exhausted
    /// (runaway handler). The counter persists across
    /// [`Node::run_until`] window boundaries and resets only when the
    /// core sleeps or dispatches a fresh handler, so a runaway handler
    /// spanning many windows is still caught.
    StepLimit {
        /// Which node.
        node: NodeId,
        /// The configured budget.
        limit: u64,
    },
    /// An AVR-kind node's core faulted.
    Avr {
        /// Which node.
        node: NodeId,
        /// The underlying fault.
        error: AvrCoreError,
    },
}

impl fmt::Display for NodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeError::Core { node, error } => write!(f, "{node}: {error}"),
            NodeError::RadioBusy { node, at } => {
                write!(f, "{node}: radio TX while busy at {at}")
            }
            NodeError::StepLimit { node, limit } => {
                write!(f, "{node}: exceeded {limit} instructions in one run")
            }
            NodeError::Avr { node, error } => write!(f, "{node}: {error}"),
        }
    }
}

impl std::error::Error for NodeError {}

/// A node's self-event. Snapshots store a pinned discriminant (0 for
/// `TxDone`, 1 for `SensorReply`) and the reply word (0 for `TxDone`).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Pending {
    TxDone,
    SensorReply(Word),
}

impl Encode for Pending {
    fn encode(&self, w: &mut Writer) {
        let (kind, value) = match *self {
            Pending::TxDone => (0, 0),
            Pending::SensorReply(v) => (1, v),
        };
        w.u8(kind);
        w.u16(value);
    }
}

impl Decode for Pending {
    fn decode(r: &mut Reader) -> Result<Pending, SnapshotError> {
        let (kind, value) = (r.u8()?, r.u16()?);
        match kind {
            0 => Ok(Pending::TxDone),
            1 => Ok(Pending::SensorReply(value)),
            _ => Err(SnapshotError::Corrupt("pending event discriminant")),
        }
    }
}

/// Earliest of two optional instants (`None` = never).
fn min_opt(a: Option<SimTime>, b: Option<SimTime>) -> Option<SimTime> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// A complete simulated sensor node (Fig. 1), of any [`NodeKind`].
///
/// Fields are `pub(crate)` for one consumer only: [`crate::snapshot`].
#[derive(Debug)]
pub struct Node {
    pub(crate) id: NodeId,
    pub(crate) kind: NodeKind,
    pub(crate) cpu: NodeCpu,
    pub(crate) radio: Radio,
    pub(crate) sensors: SensorBank,
    pub(crate) led: LedPort,
    pub(crate) pending: Calendar<Pending>,
    pub(crate) step_limit: u64,
    /// Instructions executed in the current awake stretch. Persists
    /// across `run_until` calls; resets when the core sleeps or a new
    /// handler is dispatched (see [`NodeError::StepLimit`]).
    pub(crate) run_steps: u64,
    /// The finite energy budget, if any. `None` = mains powered.
    pub(crate) battery: Option<BatteryConfig>,
    /// Set exactly once, at the instant the battery ran out.
    pub(crate) died_at: Option<SimTime>,
    /// Words heard by a [`NodeKind::Gateway`] node, in arrival order.
    pub(crate) uplink: Vec<UplinkFrame>,
}

impl Node {
    /// Build a SNAP node from its configuration.
    pub fn new(config: NodeConfig) -> Node {
        Node::with_kind(config, NodeKind::Snap)
    }

    /// Build a mains-powered SNAP gateway: identical to a SNAP node,
    /// but every word it hears is also logged to [`Node::uplink`] and
    /// [`Node::set_battery`] is a no-op (gateways never die).
    pub fn new_gateway(config: NodeConfig) -> Node {
        Node::with_kind(config, NodeKind::Gateway)
    }

    fn with_kind(config: NodeConfig, kind: NodeKind) -> Node {
        let mut radio = Radio::with_bit_rate(config.radio_bit_rate);
        if matches!(kind, NodeKind::Gateway) {
            // A gateway bridges from boot: its receiver is on before
            // (and regardless of whether) the program asks for it.
            radio.set_enabled(true);
        }
        Node {
            id: config.id,
            kind,
            cpu: NodeCpu::Snap(Processor::new(config.core)),
            radio,
            sensors: SensorBank::new(),
            led: LedPort::new(),
            pending: Calendar::new(),
            step_limit: config.step_limit,
            run_steps: 0,
            battery: None,
            died_at: None,
            uplink: Vec::new(),
        }
    }

    /// Build an AVR-baseline mote node around an assembled-and-wired
    /// core (see `atmega::tinyos` for the application builders). The
    /// radio runs at [`AVR_BIT_RATE`]; the receiver starts off and
    /// stays off after transmissions (beacon-style motes are
    /// transmit-only — see [`crate::avr::AvrMote`]).
    pub fn new_avr(id: NodeId, core: AvrCore) -> Node {
        Node {
            id,
            kind: NodeKind::Avr,
            cpu: NodeCpu::Avr(AvrMote::new(core)),
            radio: Radio::with_bit_rate(AVR_BIT_RATE),
            sensors: SensorBank::new(),
            led: LedPort::new(),
            pending: Calendar::new(),
            step_limit: NodeConfig::default().step_limit,
            run_steps: 0,
            battery: None,
            died_at: None,
            uplink: Vec::new(),
        }
    }

    /// Load an assembled program (IMEM and DMEM images) into the core.
    ///
    /// # Errors
    ///
    /// Returns an error if either image exceeds its 4 KB bank.
    ///
    /// # Panics
    ///
    /// Panics on an AVR-kind node (its program is baked into the
    /// [`AvrCore`] at construction).
    pub fn load(&mut self, program: &Program) -> Result<(), snap_core::memory::LoadError> {
        let cpu = self.snap_mut();
        cpu.load_image(0, &program.imem_image())?;
        cpu.load_data(0, &program.dmem_image())
    }

    /// This node's identity.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// This node's kind.
    pub fn kind(&self) -> NodeKind {
        self.kind
    }

    /// Clone this node under a new identity.
    ///
    /// Memory banks and the decode cache are copy-on-write, so cloning
    /// a fully-loaded template is the cheap way to build large fleets:
    /// the program image and predecoded instructions are shared until a
    /// node first writes to its own DMEM. The battery configuration is
    /// inherited; the uplink buffer starts empty.
    pub fn clone_with_id(&self, id: NodeId) -> Node {
        Node {
            id,
            kind: self.kind,
            cpu: match &self.cpu {
                NodeCpu::Snap(cpu) => NodeCpu::Snap(cpu.clone()),
                NodeCpu::Avr(mote) => NodeCpu::Avr(mote.clone()),
            },
            radio: self.radio.clone(),
            sensors: self.sensors.clone(),
            led: self.led.clone(),
            pending: Calendar::new(),
            step_limit: self.step_limit,
            run_steps: self.run_steps,
            battery: self.battery,
            died_at: self.died_at,
            uplink: Vec::new(),
        }
    }

    /// The SNAP processor (statistics, registers, memories).
    ///
    /// # Panics
    ///
    /// Panics on an AVR-kind node — callers iterating a heterogeneous
    /// fleet dispatch on [`Node::kind`] first (or use [`Node::avr`]).
    pub fn cpu(&self) -> &Processor {
        self.snap()
    }

    /// Mutable SNAP processor access (test fixtures).
    ///
    /// # Panics
    ///
    /// Panics on an AVR-kind node (see [`Node::cpu`]).
    pub fn cpu_mut(&mut self) -> &mut Processor {
        self.snap_mut()
    }

    /// The AVR mote behind an [`NodeKind::Avr`] node; `None` otherwise.
    pub fn avr(&self) -> Option<&AvrMote> {
        match &self.cpu {
            NodeCpu::Avr(mote) => Some(mote),
            NodeCpu::Snap(_) => None,
        }
    }

    /// Mutable AVR mote access (test fixtures).
    pub fn avr_mut(&mut self) -> Option<&mut AvrMote> {
        match &mut self.cpu {
            NodeCpu::Avr(mote) => Some(mote),
            NodeCpu::Snap(_) => None,
        }
    }

    fn snap(&self) -> &Processor {
        match &self.cpu {
            NodeCpu::Snap(cpu) => cpu,
            NodeCpu::Avr(_) => panic!("{}: SNAP processor access on an AVR-kind node", self.id),
        }
    }

    fn snap_mut(&mut self) -> &mut Processor {
        match &mut self.cpu {
            NodeCpu::Snap(cpu) => cpu,
            NodeCpu::Avr(_) => panic!("{}: SNAP processor access on an AVR-kind node", self.id),
        }
    }

    /// The radio.
    pub fn radio(&self) -> &Radio {
        &self.radio
    }

    /// The sensors (mutable so the environment can change readings).
    pub fn sensors_mut(&mut self) -> &mut SensorBank {
        &mut self.sensors
    }

    /// The sensors.
    pub fn sensors(&self) -> &SensorBank {
        &self.sensors
    }

    /// The output port.
    pub fn led(&self) -> &LedPort {
        &self.led
    }

    /// Current node-local simulated time.
    pub fn now(&self) -> SimTime {
        match &self.cpu {
            NodeCpu::Snap(cpu) => cpu.now(),
            NodeCpu::Avr(mote) => mote.now(),
        }
    }

    /// Attach (or remove) a finite energy budget. Ignored on gateway
    /// nodes — they are mains powered by definition.
    pub fn set_battery(&mut self, battery: Option<BatteryConfig>) {
        if !matches!(self.kind, NodeKind::Gateway) {
            self.battery = battery;
        }
    }

    /// The energy budget, if one is attached.
    pub fn battery(&self) -> Option<&BatteryConfig> {
        self.battery.as_ref()
    }

    /// The instant the battery ran out, once it has.
    pub fn died_at(&self) -> Option<SimTime> {
        self.died_at
    }

    /// Words heard by a gateway node, in arrival order (always empty
    /// for other kinds).
    pub fn uplink(&self) -> &[UplinkFrame] {
        &self.uplink
    }

    /// Drain the gateway uplink buffer (the serving layer consumes it).
    pub fn take_uplink(&mut self) -> Vec<UplinkFrame> {
        std::mem::take(&mut self.uplink)
    }

    /// The lifetime totals the battery model consumes: (active energy,
    /// sleep picoseconds, words transmitted). All three are exact
    /// functions of node state — never incrementally accumulated — so
    /// battery math is scheduler-invariant (see `snap_energy::battery`).
    pub fn consumption_totals(&self) -> (Energy, u64, u64) {
        match &self.cpu {
            NodeCpu::Snap(cpu) => {
                let stats = cpu.stats();
                (
                    stats.energy,
                    stats.sleep_time.as_ps(),
                    self.radio.words_sent(),
                )
            }
            NodeCpu::Avr(mote) => (
                mote.active_energy(),
                mote.sleep_ps(),
                self.radio.words_sent(),
            ),
        }
    }

    /// Charge consumed so far against the battery (`None` when mains
    /// powered).
    pub fn battery_consumed(&self) -> Option<Energy> {
        let battery = self.battery.as_ref()?;
        let (active, sleep_ps, words) = self.consumption_totals();
        Some(battery.consumed(active, sleep_ps, words))
    }

    /// The exact instant the battery runs out if the node keeps
    /// sleeping from now on — the death instant the event loop kills
    /// the node at. `None` when mains powered or past the simulation
    /// horizon. Only meaningful while the node is idle.
    fn death_instant(&self) -> Option<SimTime> {
        let battery = self.battery.as_ref()?;
        let (active, sleep_ps, words) = self.consumption_totals();
        let extra = battery.sleep_ps_to_exhaustion(active, sleep_ps, words)?;
        Some(self.now() + SimDuration::from_ps(extra))
    }

    /// Deliver a radio word from the channel. Returns `true` when the
    /// node heard it (receiver on, not transmitting, event accepted).
    /// Dead nodes hear nothing. On an AVR mote the word's low byte
    /// arrives as an SPI-complete interrupt. On a gateway the word is
    /// logged to [`Node::uplink`] and counts as heard whether or not
    /// the program also consumes it (bridging is the gateway's job;
    /// local processing is optional).
    pub fn deliver_rx(&mut self, word: Word) -> bool {
        if self.died_at.is_some() || !self.radio.can_hear() {
            return false;
        }
        self.radio.note_heard();
        if matches!(self.kind, NodeKind::Gateway) {
            self.uplink.push(UplinkFrame {
                at: self.now(),
                word,
            });
        }
        match &mut self.cpu {
            NodeCpu::Snap(cpu) => {
                let accepted = cpu.post_radio_rx(word);
                accepted || matches!(self.kind, NodeKind::Gateway)
            }
            NodeCpu::Avr(mote) => {
                mote.core.post_spi_rx(word as u8);
                true
            }
        }
    }

    /// Assert the external sensor-interrupt pin. Always `false` on AVR
    /// motes (their sensing path is the ADC, driven by the program) and
    /// on dead nodes.
    pub fn trigger_sensor_irq(&mut self) -> bool {
        if self.died_at.is_some() {
            return false;
        }
        match &mut self.cpu {
            NodeCpu::Snap(cpu) => cpu.post_sensor_irq(),
            NodeCpu::Avr(_) => false,
        }
    }

    /// When this node next needs attention: now if running or an event
    /// is deliverable, the earliest pending/timer/battery-death instant
    /// while asleep, `None` when nothing will ever happen again (halted
    /// or dead).
    ///
    /// The battery-death instant counts as activity so every scheduler
    /// naturally windows at it and [`Node::run_until`] kills the node
    /// there — that, plus the instant being a pure function of node
    /// state, is what makes death timing scheduler-invariant.
    pub fn next_activity(&self) -> Option<SimTime> {
        if self.died_at.is_some() {
            return None;
        }
        match &self.cpu {
            NodeCpu::Snap(cpu) => match cpu.state() {
                CoreState::Halted => None,
                CoreState::Running => Some(cpu.now()),
                CoreState::Asleep => {
                    if !cpu.event_queue().is_empty() {
                        return Some(cpu.now());
                    }
                    let pending = self.pending.peek_time();
                    let timer = cpu.next_timer_expiry();
                    let wake = min_opt(pending, timer);
                    min_opt(wake, self.death_instant())
                }
            },
            NodeCpu::Avr(mote) => {
                let core = mote.core();
                if core.halted() {
                    return None;
                }
                if !core.sleeping() || core.irq_pending() {
                    return Some(mote.now());
                }
                let peripheral = core
                    .next_event_cycle()
                    .map(|c| SimTime::from_ps(c * AVR_CYCLE_PS));
                let wake = min_opt(peripheral, self.pending.peek_time());
                min_opt(wake, self.death_instant())
            }
        }
    }

    /// Advance the node until `deadline`, executing handlers and
    /// delivering radio/sensor events at their due times.
    ///
    /// SNAP handlers execute in batched bursts ([`Processor::run_burst`])
    /// bounded by the earliest pending local event, so per-instruction
    /// polling overhead is gone while event delivery instants — and
    /// therefore all architectural state — stay bit-identical to the
    /// stepped loop. AVR motes run their core to the first instruction
    /// boundary at or past the deadline (see [`crate::avr`]).
    ///
    /// ## Battery death
    ///
    /// A node with a [`BatteryConfig`] checks its budget at every
    /// active→idle boundary: if the budget runs out before the node's
    /// next wake-up, it dies at exactly the exhaustion instant (idling
    /// up to it first, so the final sleep stretch is accounted). Both
    /// the decision points and the instant are pure functions of node
    /// state, so death timing is identical under every scheduler. Death
    /// wins ties: a node whose budget expires exactly at a wake-up or
    /// delivery instant dies without processing the event. A dead node
    /// does nothing forever after.
    ///
    /// # Errors
    ///
    /// See [`NodeError`].
    pub fn run_until(&mut self, deadline: SimTime) -> Result<Vec<NodeOutput>, NodeError> {
        let mut outputs = Vec::new();
        match self.cpu {
            NodeCpu::Snap(_) => self.run_snap_until(deadline, &mut outputs)?,
            NodeCpu::Avr(_) => self.run_avr_until(deadline, &mut outputs)?,
        }
        Ok(outputs)
    }

    fn run_snap_until(
        &mut self,
        deadline: SimTime,
        outputs: &mut Vec<NodeOutput>,
    ) -> Result<(), NodeError> {
        loop {
            if self.died_at.is_some() {
                break;
            }
            self.deliver_due();
            match self.snap().state() {
                CoreState::Halted => break,
                CoreState::Running => {
                    if self.snap().now() >= deadline {
                        break;
                    }
                    let remaining = self.step_limit.saturating_sub(self.run_steps);
                    if remaining == 0 {
                        return Err(NodeError::StepLimit {
                            node: self.id,
                            limit: self.step_limit,
                        });
                    }
                    // Stop the burst where a stepped loop would have
                    // delivered the next pending radio/sensor event
                    // (`deliver_due` polls at instruction boundaries).
                    let limit = match self.pending.peek_time() {
                        Some(p) if p < deadline => p,
                        _ => deadline,
                    };
                    let node = self.id;
                    let cpu = self.snap_mut();
                    let dispatched = cpu.handlers_dispatched();
                    let burst = cpu
                        .run_burst(limit, remaining)
                        .map_err(|error| NodeError::Core { node, error })?;
                    if cpu.handlers_dispatched() != dispatched {
                        // `done` chained into a fresh handler mid-burst:
                        // restart the runaway budget. Attributing the
                        // whole burst to the newest handler over-counts
                        // by at most one burst, which only matters when
                        // the budget was nearly exhausted anyway.
                        self.run_steps = burst.steps;
                    } else {
                        self.run_steps += burst.steps;
                    }
                    if let Some(action) = burst.action {
                        self.handle_action(action, outputs)?;
                    }
                }
                CoreState::Asleep => {
                    self.run_steps = 0;
                    if !self.snap().event_queue().is_empty() {
                        // A token is waiting: wake up.
                        let node = self.id;
                        self.snap_mut()
                            .step()
                            .map_err(|error| NodeError::Core { node, error })?;
                        continue;
                    }
                    let wake = min_opt(self.pending.peek_time(), self.snap().next_timer_expiry());
                    if self.die_if_exhausted_before(wake, deadline, outputs) {
                        break;
                    }
                    match wake {
                        Some(t) if t <= deadline => {
                            self.snap_mut().advance_idle(t);
                        }
                        _ => {
                            self.snap_mut().advance_idle(deadline);
                            break;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// The shared death check, evaluated at an active→idle boundary:
    /// if the battery runs out no later than both the node's next wake
    /// (`wake`, `None` = never wakes) and the window `deadline`, idle
    /// up to the exhaustion instant, mark the node dead and emit
    /// [`NodeOutput::Died`]. Returns whether the node died.
    fn die_if_exhausted_before(
        &mut self,
        wake: Option<SimTime>,
        deadline: SimTime,
        outputs: &mut Vec<NodeOutput>,
    ) -> bool {
        let Some(at) = self.death_instant() else {
            return false;
        };
        if wake.is_some_and(|w| at > w) || at > deadline {
            return false;
        }
        match &mut self.cpu {
            NodeCpu::Snap(cpu) => {
                cpu.advance_idle(at);
            }
            NodeCpu::Avr(mote) => {
                let cycle = AvrMote::cycle_deadline(at);
                mote.core_mut().freeze_at_wall(cycle);
            }
        }
        self.died_at = Some(at);
        outputs.push(NodeOutput::Died { at });
        true
    }

    fn run_avr_until(
        &mut self,
        deadline: SimTime,
        outputs: &mut Vec<NodeOutput>,
    ) -> Result<(), NodeError> {
        let node = self.id;
        let dl_cycles = AvrMote::cycle_deadline(deadline);
        loop {
            if self.died_at.is_some() {
                break;
            }
            self.deliver_due();
            let core = match &self.cpu {
                NodeCpu::Avr(mote) => mote.core(),
                NodeCpu::Snap(_) => unreachable!("run_avr_until on a SNAP node"),
            };
            if core.halted() {
                break;
            }
            if core.sleeping() && !core.irq_pending() {
                // Idle: the next thing that can happen is a core
                // peripheral event, a node-layer calendar entry
                // (radio TX completion), or battery death.
                let peripheral = core
                    .next_event_cycle()
                    .map(|c| SimTime::from_ps(c * AVR_CYCLE_PS));
                let wake = min_opt(peripheral, self.pending.peek_time());
                if self.die_if_exhausted_before(wake, deadline, outputs) {
                    break;
                }
                let target = match wake {
                    Some(w) if w <= deadline => AvrMote::cycle_deadline(w),
                    _ => dl_cycles,
                };
                let mote = self.avr_mut().expect("AVR node");
                mote.core_mut()
                    .run_until_wall(target)
                    .map_err(|error| NodeError::Avr { node, error })?;
                // A fired wake interrupt may have executed a few ISR
                // instructions inside `run_until_wall` before the wall
                // target was reached — surface any SPI bytes they wrote.
                self.drain_avr_tx(outputs)?;
                if target == dl_cycles && wake.is_none_or(|w| w > deadline) {
                    self.deliver_due();
                    break;
                }
                continue;
            }
            // Active (or a wake interrupt is deliverable): run to the
            // next idle boundary or the first instruction boundary at
            // or past the deadline, then surface new SPI bytes as
            // radio words.
            let mote = self.avr_mut().expect("AVR node");
            mote.core_mut()
                .run_active_until_wall(dl_cycles)
                .map_err(|error| NodeError::Avr { node, error })?;
            self.drain_avr_tx(outputs)?;
            let reached = match &self.cpu {
                NodeCpu::Avr(mote) => mote.core().wall_cycles() >= dl_cycles,
                NodeCpu::Snap(_) => unreachable!(),
            };
            if reached {
                self.deliver_due();
                break;
            }
        }
        Ok(())
    }

    /// Turn SPI bytes the AVR program wrote since the last drain into
    /// on-air radio words, one word per byte, starting at the byte's
    /// write instant. TX completions that fall before a byte's start
    /// are processed first so back-to-back bytes find the radio free.
    fn drain_avr_tx(&mut self, outputs: &mut Vec<NodeOutput>) -> Result<(), NodeError> {
        loop {
            let (byte, cycle) = {
                let mote = match &self.cpu {
                    NodeCpu::Avr(mote) => mote,
                    NodeCpu::Snap(_) => unreachable!("drain_avr_tx on a SNAP node"),
                };
                let i = mote.tx_emitted;
                match (
                    mote.core().spi_sent().get(i),
                    mote.core().spi_sent_cycles().get(i),
                ) {
                    (Some(&b), Some(&c)) => (b, c),
                    _ => break,
                }
            };
            let start = SimTime::from_ps(cycle * AVR_CYCLE_PS);
            self.pop_pending_through(start);
            match self.radio.start_tx(Word::from(byte), start) {
                Some(end) => {
                    self.pending.schedule(end, Pending::TxDone);
                    outputs.push(NodeOutput::Transmitted {
                        word: Word::from(byte),
                        start,
                        end,
                    });
                }
                None => {
                    return Err(NodeError::RadioBusy {
                        node: self.id,
                        at: start,
                    })
                }
            }
            if let NodeCpu::Avr(mote) = &mut self.cpu {
                mote.tx_emitted += 1;
            }
        }
        Ok(())
    }

    /// Advance the node by `duration` from its current time.
    ///
    /// ```
    /// use dess::SimDuration;
    /// use snap_node::{Node, NodeConfig};
    ///
    /// let program = snap_asm::assemble("boot: li r15, 0x4003\n done")?;
    /// let mut node = Node::new(NodeConfig::default());
    /// node.load(&program)?;
    /// node.run_for(SimDuration::from_us(10))?;
    /// assert_eq!(node.led().value(), 3);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// See [`NodeError`].
    pub fn run_for(&mut self, duration: SimDuration) -> Result<Vec<NodeOutput>, NodeError> {
        self.run_until(self.now() + duration)
    }

    fn deliver_due(&mut self) {
        self.pop_pending_through(self.now());
    }

    /// Process calendar entries due at or before `t`. On SNAP nodes a
    /// TX completion posts `RadioTxDone`; on AVR motes the core already
    /// took its own SPI-complete interrupt, so only the radio is freed
    /// (and returned to the mote's listen policy — off by default).
    fn pop_pending_through(&mut self, t: SimTime) {
        while let Some(due) = self.pending.peek_time() {
            if due > t {
                break;
            }
            let (_, ev) = self.pending.pop().expect("peeked");
            match ev {
                Pending::TxDone => {
                    let _word = self.radio.finish_tx();
                    match &mut self.cpu {
                        NodeCpu::Snap(cpu) => {
                            cpu.post_radio_tx_done();
                        }
                        NodeCpu::Avr(mote) => {
                            self.radio.set_enabled(mote.listen);
                        }
                    }
                }
                Pending::SensorReply(v) => {
                    if let NodeCpu::Snap(cpu) = &mut self.cpu {
                        cpu.post_sensor_reply(v);
                    }
                }
            }
        }
    }

    fn handle_action(
        &mut self,
        action: EnvAction,
        outputs: &mut Vec<NodeOutput>,
    ) -> Result<(), NodeError> {
        let now = self.snap().now();
        match action {
            EnvAction::TxWord(word) => match self.radio.start_tx(word, now) {
                Some(end) => {
                    self.pending.schedule(end, Pending::TxDone);
                    outputs.push(NodeOutput::Transmitted {
                        word,
                        start: now,
                        end,
                    });
                    Ok(())
                }
                None => Err(NodeError::RadioBusy {
                    node: self.id,
                    at: now,
                }),
            },
            EnvAction::RadioMode(enabled) => {
                self.radio.set_enabled(enabled);
                outputs.push(NodeOutput::RadioModeChanged { enabled, at: now });
                Ok(())
            }
            EnvAction::Query(id) => {
                let value = self.sensors.query(id);
                self.pending.schedule(
                    now + self.sensors.reply_latency(),
                    Pending::SensorReply(value),
                );
                Ok(())
            }
            EnvAction::PortWrite(value) => {
                self.led.write(now, value);
                outputs.push(NodeOutput::LedWrite { value, at: now });
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_asm::assemble;
    use snap_isa::EventKind;

    fn node_with(src: &str) -> Node {
        let program = assemble(src).unwrap();
        let mut node = Node::new(NodeConfig::default());
        node.load(&program).unwrap();
        node
    }

    #[test]
    fn port_write_surfaces_as_output() {
        let mut node = node_with("li r15, 0x4007\nhalt");
        let out = node.run_for(SimDuration::from_ms(1)).unwrap();
        assert!(matches!(out[..], [NodeOutput::LedWrite { value: 7, .. }]));
        assert_eq!(node.led().value(), 7);
    }

    #[test]
    fn radio_tx_takes_word_time() {
        // TX command, payload, wait for tx-done event, then halt.
        let src = r"
            .equ EV_TXDONE, 4
                li      r1, EV_TXDONE
                li      r2, after
                setaddr r1, r2
                li      r15, 0x2000     ; TX command
                li      r15, 0xbeef     ; payload
                done
            after:
                halt
        ";
        let mut node = node_with(src);
        let out = node.run_for(SimDuration::from_ms(5)).unwrap();
        let Some(NodeOutput::Transmitted { word, start, end }) = out
            .iter()
            .find(|o| matches!(o, NodeOutput::Transmitted { .. }))
        else {
            panic!("no transmission in {out:?}");
        };
        assert_eq!(*word, 0xbeef);
        assert!(((*end - *start).as_us() - 833.3).abs() < 1.0);
        // The node slept during the TX and woke for the done event.
        assert_eq!(node.cpu().stats().wakeups, 1);
        assert!(node.cpu().stats().sleep_time.as_us() > 800.0);
    }

    #[test]
    fn sensor_query_reply_round_trip() {
        let src = r"
            .equ EV_REPLY, 6
                li      r1, EV_REPLY
                li      r2, got
                setaddr r1, r2
                li      r15, 0x3005     ; query sensor 5
                done
            got:
                mov     r3, r15         ; pop the reading
                halt
        ";
        let mut node = node_with(src);
        node.sensors_mut().set_reading(5, 0x2bad);
        node.run_for(SimDuration::from_ms(1)).unwrap();
        assert_eq!(node.cpu().regs().read(snap_isa::Reg::R3), 0x2bad);
        assert_eq!(node.sensors().queries(), 1);
    }

    #[test]
    fn rx_word_reaches_handler() {
        let src = r"
            .equ EV_RX, 3
                li      r1, EV_RX
                li      r2, rx
                setaddr r1, r2
                li      r15, 0x1001     ; rx on
                done
            rx:
                mov     r4, r15
                halt
        ";
        let mut node = node_with(src);
        node.run_for(SimDuration::from_us(10)).unwrap();
        assert!(node.deliver_rx(0x1234));
        node.run_for(SimDuration::from_us(10)).unwrap();
        assert_eq!(node.cpu().regs().read(snap_isa::Reg::R4), 0x1234);
        assert_eq!(node.radio().words_heard(), 1);
    }

    #[test]
    fn rx_with_radio_off_is_lost() {
        let mut node = node_with("done");
        node.run_for(SimDuration::from_us(1)).unwrap();
        assert!(!node.deliver_rx(0x5555));
    }

    #[test]
    fn timer_driven_periodic_handler() {
        // Schedule timer0 every 100 us; each firing writes the port and
        // reschedules. Run 1 ms => ~10 writes.
        let src = r"
                li      r1, 0
                li      r2, tick
                setaddr r1, r2
                call    sched
                done
            sched:
                li      r3, 0
                schedhi r1, r3
                li      r3, 100
                schedlo r1, r3
                ret
            tick:
                li      r15, 0x4001
                li      r15, 0x4000
                call    sched
                done
        ";
        let mut node = node_with(src);
        node.run_for(SimDuration::from_ms(1)).unwrap();
        let blinks = node.led().writes();
        assert!(
            (16..=22).contains(&blinks),
            "expected ~20 port writes, got {blinks}"
        );
        assert!(node.cpu().stats().wakeups >= 9);
    }

    #[test]
    fn next_activity_reflects_state() {
        let mut node = node_with("done");
        node.run_for(SimDuration::from_us(1)).unwrap();
        // Asleep, no timers, nothing pending.
        assert_eq!(node.next_activity(), None);
        node.trigger_sensor_irq();
        assert_eq!(node.next_activity(), Some(node.now()));
    }

    #[test]
    fn halted_node_stops() {
        let mut node = node_with("halt");
        node.run_for(SimDuration::from_ms(10)).unwrap();
        assert_eq!(node.cpu().state(), snap_core::CoreState::Halted);
        assert_eq!(node.next_activity(), None);
        // Further runs are no-ops.
        let out = node.run_for(SimDuration::from_ms(1)).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn runaway_handler_trips_step_limit() {
        let cfg = NodeConfig {
            step_limit: 1000,
            ..NodeConfig::default()
        };
        let program = assemble("loop: jmp loop").unwrap();
        let mut node = Node::new(cfg);
        node.load(&program).unwrap();
        let err = node.run_for(SimDuration::from_ms(1)).unwrap_err();
        assert!(matches!(err, NodeError::StepLimit { limit: 1000, .. }));
    }

    #[test]
    fn step_limit_spans_window_boundaries() {
        // Windows short enough that each one executes well under the
        // budget: the counter must accumulate across windows instead of
        // resetting, or this runaway loop is never caught.
        let cfg = NodeConfig {
            step_limit: 1000,
            ..NodeConfig::default()
        };
        let program = assemble("loop: jmp loop").unwrap();
        let mut node = Node::new(cfg);
        node.load(&program).unwrap();
        let mut windows = 0u32;
        let err = loop {
            match node.run_for(SimDuration::from_us(1)) {
                Ok(_) => windows += 1,
                Err(e) => break e,
            }
            assert!(windows < 10_000, "step limit never tripped");
        };
        assert!(matches!(err, NodeError::StepLimit { limit: 1000, .. }));
        assert!(windows > 1, "budget must survive at least one window");
    }

    #[test]
    fn step_budget_resets_after_sleep() {
        // Each IRQ handler runs ~600 instructions — under the 1000
        // budget — then sleeps. Repeated dispatches must each get a
        // fresh budget rather than accumulating into a false trip.
        let src = r"
            .equ EV_IRQ, 5
                li      r1, EV_IRQ
                li      r2, h
                setaddr r1, r2
                done
            h:
                li      r3, 200
            spin:
                subi    r3, 1
                bnez    r3, spin
                done
        ";
        let cfg = NodeConfig {
            step_limit: 1000,
            ..NodeConfig::default()
        };
        let program = assemble(src).unwrap();
        let mut node = Node::new(cfg);
        node.load(&program).unwrap();
        node.run_for(SimDuration::from_us(50)).unwrap();
        for _ in 0..5 {
            node.trigger_sensor_irq();
            node.run_for(SimDuration::from_us(50)).unwrap();
        }
        assert_eq!(node.cpu().stats().handlers_dispatched, 5);
    }

    #[test]
    fn tx_while_busy_is_an_error() {
        let src = r"
            li r15, 0x2000
            li r15, 1
            li r15, 0x2000
            li r15, 2
            halt
        ";
        let mut node = node_with(src);
        let err = node.run_for(SimDuration::from_ms(1)).unwrap_err();
        assert!(matches!(err, NodeError::RadioBusy { .. }), "{err}");
    }

    #[test]
    fn handler_measurement_via_stat_snapshots() {
        // Measure a handler exactly as the Table 1 benches do.
        let src = r"
            .equ EV_IRQ, 5
                li      r1, EV_IRQ
                li      r2, h
                setaddr r1, r2
                done
            h:
                li      r3, 1
                li      r4, 2
                add     r3, r4
                done
        ";
        let mut node = node_with(src);
        node.run_for(SimDuration::from_us(10)).unwrap();
        let before = node.cpu().stats();
        node.trigger_sensor_irq();
        node.run_for(SimDuration::from_us(10)).unwrap();
        let d = node.cpu().stats().since(&before);
        assert_eq!(d.instructions, 4); // li, li, add, done
        assert_eq!(d.handlers_dispatched, 1);
        assert!(d.energy.as_pj() > 0.0);
        // Paper event-kind sanity: irq index is 5.
        assert_eq!(EventKind::SensorIrq.index(), 5);
    }

    /// An AVR beacon mote as a Node: virtual timer fires, the app ships
    /// header+sample over SPI, and each byte goes on the air as a word.
    fn avr_beacon_node(tag: u8, period_ticks: u16) -> Node {
        let (mut core, _) = atmega::tinyos::beacon_system(tag, period_ticks).unwrap();
        core.set_adc_reading(0x42);
        Node::new_avr(NodeId(7), core)
    }

    #[test]
    fn avr_beacon_transmits_words_on_air() {
        let mut node = avr_beacon_node(5, 2);
        let out = node.run_for(SimDuration::from_ms(7)).unwrap();
        let words: Vec<u16> = out
            .iter()
            .filter_map(|o| match o {
                NodeOutput::Transmitted { word, .. } => Some(*word),
                _ => None,
            })
            .collect();
        // ≥2 beacon periods: header (0x80 | tag) then the ADC sample.
        assert!(words.len() >= 4, "expected ≥2 beacons, got {words:?}");
        assert_eq!(&words[..4], &[0x85, 0x42, 0x85, 0x42]);
        // Transmissions really occupy the radio for a 16-bit word time.
        let Some(NodeOutput::Transmitted { start, end, .. }) = out
            .iter()
            .find(|o| matches!(o, NodeOutput::Transmitted { .. }))
        else {
            unreachable!()
        };
        assert!(((*end - *start).as_us() - 416.7).abs() < 1.0);
        assert!(node.avr().unwrap().active_energy().as_pj() > 0.0);
    }

    #[test]
    fn avr_windowing_is_split_invariant() {
        // The same mote driven to one 7 ms deadline vs. through ragged
        // interior deadlines (as a scheduler would window it) must
        // transmit identical words at identical instants and land in
        // the identical core state.
        let mut whole = avr_beacon_node(5, 2);
        let mut sliced = avr_beacon_node(5, 2);
        let out_a = whole.run_until(SimTime::from_ps(7_000_000_000)).unwrap();
        let mut out_b = Vec::new();
        for us in [1, 1000, 2500, 2501, 5000, 6000, 7000] {
            let deadline = SimTime::from_ps(us * 1_000_000);
            out_b.extend(sliced.run_until(deadline).unwrap());
        }
        assert_eq!(out_a, out_b);
        assert_eq!(whole.export_snapshot(), sliced.export_snapshot());
    }

    /// A battery so small the node dies mid-simulation: ~10.8 µJ at a
    /// 3 W sleep draw exhausts a few µs into the first sleep.
    fn micro_battery() -> BatteryConfig {
        BatteryConfig {
            capacity_uah: 1e-3,
            voltage_v: 3.0,
            sleep_ua: 1e6,
            tx_pj_per_word: 0.0,
        }
    }

    #[test]
    fn battery_death_is_split_invariant() {
        let src = "li r15, 0x4001\ndone";
        let run = |deadlines_us: &[u64]| {
            let mut node = node_with(src);
            node.set_battery(Some(micro_battery()));
            let mut out = Vec::new();
            for &us in deadlines_us {
                let deadline = SimTime::from_ps(us * 1_000_000);
                out.extend(node.run_until(deadline).unwrap());
            }
            (out, node.died_at(), node.export_snapshot())
        };
        let (out_a, died_a, snap_a) = run(&[100]);
        let (out_b, died_b, snap_b) = run(&[1, 2, 3, 6, 100]);
        assert_eq!(out_a, out_b);
        assert_eq!(died_a, died_b);
        assert_eq!(snap_a, snap_b);
        let at = died_a.expect("node must exhaust its micro battery");
        assert!(out_a.contains(&NodeOutput::Died { at }));
        // The death instant is exactly where consumption crosses
        // capacity, not a window boundary.
        assert!(at.as_ps() % SimDuration::from_us(1).as_ps() != 0);
    }

    #[test]
    fn dead_node_is_inert() {
        let mut node = node_with("li r15, 0x1001\ndone"); // rx on, sleep
        node.set_battery(Some(micro_battery()));
        node.run_for(SimDuration::from_ms(1)).unwrap();
        assert!(node.died_at().is_some());
        assert_eq!(node.next_activity(), None);
        assert!(!node.deliver_rx(0x1234));
        assert!(!node.trigger_sensor_irq());
        let out = node.run_for(SimDuration::from_ms(1)).unwrap();
        assert!(out.is_empty());
        // Consumption is frozen at (just past) capacity.
        let consumed = node.battery_consumed().expect("battery present");
        assert!(consumed.as_pj() >= micro_battery().capacity().as_pj());
    }

    #[test]
    fn avr_battery_death_is_split_invariant() {
        let run = |deadlines_us: &[u64]| {
            let mut node = avr_beacon_node(1, 2);
            node.set_battery(Some(micro_battery()));
            let mut out = Vec::new();
            for &us in deadlines_us {
                let deadline = SimTime::from_ps(us * 1_000_000);
                out.extend(node.run_until(deadline).unwrap());
            }
            (out, node.died_at(), node.export_snapshot())
        };
        let (out_a, died_a, snap_a) = run(&[10_000]);
        let (out_b, died_b, snap_b) = run(&[3, 1003, 6000, 6001, 10_000]);
        assert_eq!(out_a, out_b);
        assert_eq!(died_a, died_b);
        assert_eq!(snap_a, snap_b);
        assert!(died_a.is_some(), "AVR mote must exhaust its battery");
    }

    #[test]
    fn gateway_never_dies_and_logs_uplink() {
        let mut node = Node::new_gateway(NodeConfig::default());
        node.load(&assemble("done").unwrap()).unwrap();
        node.set_battery(Some(micro_battery())); // ignored: mains power
        assert!(node.battery().is_none());
        node.run_for(SimDuration::from_ms(1)).unwrap();
        assert!(node.died_at().is_none());
        assert!(node.deliver_rx(0xbeef));
        assert_eq!(
            node.uplink(),
            &[UplinkFrame {
                at: node.now(),
                word: 0xbeef
            }]
        );
        let drained = node.take_uplink();
        assert_eq!(drained.len(), 1);
        assert!(node.uplink().is_empty());
    }
}
