//! The SNAP/LE processor: boot, event dispatch, sleep, and execution.
//!
//! The paper's execution model (§3.1): the core boots at address 0 and
//! runs until the first `done`. From then on it alternates between
//! *asleep* (no switching activity, waiting on the event queue) and
//! *awake* (running one handler to its `done`). Waking costs eighteen
//! gate delays. Handlers are atomic: nothing preempts them; new events
//! wait in the queue.
//!
//! Simulated time advances by the voltage-scaled latency of each
//! executed instruction; energy accumulates per instruction through
//! [`crate::EnergyAccountant`]. The environment (crate `snap-node`)
//! delivers radio words, sensor data and time passing; the core hands
//! back [`EnvAction`]s for its radio/sensor/port commands.

use crate::decode_cache::{DecodeCache, Predecoded};
use crate::energy_acct::EnergyAccountant;
use crate::event_queue::EventQueue;
use crate::fuse::{self, ExecCtx, FusedSlot};
use crate::memory::{Bank, MemBank};
use crate::msg_cop::{EnvAction, MsgCoprocessor};
use crate::profile::HandlerProfile;
use crate::regfile::RegFile;
use crate::sampler::HandlerSampler;
use crate::timer_cop::TimerCoprocessor;
use crate::translate::{AotImage, AotRegion};
use dess::{Lfsr16, SimDuration, SimTime};
use snap_energy::model::BusModel;
use snap_energy::{Energy, OperatingPoint};
use snap_isa::{
    Addr, AluImmOp, AluOp, DecodeError, EventKind, EventToken, Instruction, Reg, Word,
    EVENT_TABLE_ENTRIES, MEM_WORDS,
};
use snap_snapshot::{Decode, Encode, Reader, SnapshotError, Writer};

/// Which translation tier [`Processor::run_burst`] executes with.
///
/// Every engine produces **bit-identical** results — registers,
/// memories, event order, traces and energy `f64` bits — the tiers only
/// change how fast the host simulates them (snap-smith's differential
/// driver holds them to that). [`Processor::step`] always interprets,
/// whatever the engine; engine selection only affects the batched
/// burst path.
///
/// The discriminants are pinned: snapshots store them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Pure interpreter: one decode/dispatch per dynamic instruction
    /// (the reference semantics).
    Interp = 0,
    /// Tier 1: superinstruction fusion over the predecode cache — hot
    /// multi-word idioms replay as threaded micro-op traces.
    #[default]
    Fused = 1,
    /// Tier 2: fusion plus AOT-compiled basic blocks for regions
    /// installed via [`Processor::install_aot`] (snap-lint-proven
    /// handlers); falls back to tier 1, then the interpreter.
    Aot = 2,
}

impl Encode for Engine {
    fn encode(&self, w: &mut Writer) {
        w.u8(*self as u8);
    }
}

impl Decode for Engine {
    fn decode(r: &mut Reader) -> Result<Engine, SnapshotError> {
        let variants = [Engine::Interp, Engine::Fused, Engine::Aot];
        r.variant(&variants, "engine discriminant")
    }
}

/// Configuration of a [`Processor`].
///
/// The event queue ([`snap_isa::EVENT_QUEUE_DEPTH`] tokens), the timer
/// tick ([`crate::timer_cop::TICK`]) and the `rand` LFSR's power-on
/// state ([`Lfsr16::default`]) are fixed hardware, not configuration,
/// so snapshots do not carry them either.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreConfig {
    /// Supply-voltage operating point (default: 1.8 V nominal).
    pub operating_point: OperatingPoint,
    /// Bus organization (flat only for the `ablation_bus` bench).
    pub bus: BusModel,
    /// Translation tier for batched execution (default:
    /// [`Engine::Fused`]). Results are bit-identical across engines.
    pub engine: Engine,
}

impl Default for CoreConfig {
    fn default() -> CoreConfig {
        CoreConfig {
            operating_point: OperatingPoint::V1_8,
            bus: BusModel::default(),
            engine: Engine::Fused,
        }
    }
}

impl CoreConfig {
    /// The default configuration at a specific operating point.
    pub fn at(point: OperatingPoint) -> CoreConfig {
        CoreConfig {
            operating_point: point,
            ..CoreConfig::default()
        }
    }
}

/// Captured so a restore rebuilds the identical energy and timing
/// models before replaying a single instruction.
impl Encode for CoreConfig {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.operating_point.vdd().to_bits());
        w.u64(self.operating_point.delay_factor().to_bits());
        w.bool(self.bus == BusModel::Flat);
        self.engine.encode(w);
    }
}

/// Rejects operating points the energy model would panic on, and those
/// so slow that a latency could overflow the clock.
impl Decode for CoreConfig {
    fn decode(r: &mut Reader) -> Result<CoreConfig, SnapshotError> {
        let vdd = f64::from_bits(r.u64()?);
        if !vdd.is_finite() || vdd <= 0.0 {
            return Err(SnapshotError::Corrupt("operating point vdd"));
        }
        let delay = f64::from_bits(r.u64()?);
        // The slowest modelled point is 8.57; at 10⁶ an instruction
        // still takes under 10 ms, so no latency overflows the clock.
        if !(1.0..=1e6).contains(&delay) {
            return Err(SnapshotError::Corrupt("operating point delay factor"));
        }
        // Encoded as a bool: `true` for the flat ablation bus.
        let bus = r.variant(&[BusModel::Hierarchical, BusModel::Flat], "bool flag")?;
        Ok(CoreConfig {
            operating_point: OperatingPoint::new(vdd, delay),
            bus,
            engine: Engine::decode(r)?,
        })
    }
}

/// The core's activity state.
///
/// The discriminants are pinned: snapshots store them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreState {
    /// Executing boot code or a handler.
    Running = 0,
    /// All switching activity stopped; waiting on the event queue.
    Asleep = 1,
    /// Stopped by the simulator-only `halt` instruction.
    Halted = 2,
}

impl Encode for CoreState {
    fn encode(&self, w: &mut Writer) {
        w.u8(*self as u8);
    }
}

impl Decode for CoreState {
    fn decode(r: &mut Reader) -> Result<CoreState, SnapshotError> {
        let variants = [CoreState::Running, CoreState::Asleep, CoreState::Halted];
        r.variant(&variants, "core state discriminant")
    }
}

/// What one [`Processor::step`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// An instruction was executed; it may have produced an environment
    /// action.
    Executed {
        /// Action for the node environment, if the instruction touched
        /// the message coprocessor's command side.
        action: Option<EnvAction>,
        /// The executed instruction (debug/trace clients).
        ins: Instruction,
        /// The word address it was fetched from.
        at: Addr,
    },
    /// The core woke up and dispatched the handler for the head event
    /// token (no instruction executed yet).
    Woke {
        /// The event that woke the core.
        event: EventKind,
    },
    /// The core is asleep with an empty event queue; nothing happened.
    Asleep,
    /// The core has executed `halt`.
    Halted,
}

/// What one [`Processor::run_burst`] call did: how many instructions
/// executed and the environment action (if any) that ended the burst.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Burst {
    /// Dynamic instructions executed in this burst.
    pub steps: u64,
    /// The environment action that terminated the burst, if one was
    /// produced (the environment must apply it before execution
    /// resumes — e.g. a radio TX must hit the channel).
    pub action: Option<EnvAction>,
}

/// Execution errors. These indicate handler/program bugs (or a
/// malformed image), not recoverable conditions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepError {
    /// An instruction word failed to decode.
    Decode {
        /// The decode failure.
        error: DecodeError,
        /// The word address it was fetched from.
        at: Addr,
    },
    /// A timer instruction named a timer register other than 0–2.
    BadTimer {
        /// The register value used as the timer number.
        number: u16,
        /// The word address of the instruction.
        at: Addr,
    },
    /// A word written to `r15` was not a valid command (and the
    /// coprocessor was not expecting transmit payload).
    BadMsgCommand {
        /// The offending word.
        word: Word,
        /// The word address of the instruction.
        at: Addr,
    },
    /// An instruction read `r15` while the outgoing FIFO was empty. In
    /// hardware the core would stall; handler code driven by the event
    /// queue should never do this, so the simulator flags it.
    MsgPortEmpty {
        /// The word address of the instruction.
        at: Addr,
    },
    /// `run_to_halt`/`run_until_idle` exceeded its step budget.
    StepLimit {
        /// The budget that was exceeded.
        limit: u64,
    },
    /// The core is asleep with no pending events and no active timers;
    /// it would sleep forever.
    Stuck {
        /// The simulated time at which progress stopped.
        at: SimTime,
    },
}

impl std::fmt::Display for StepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StepError::Decode { error, at } => write!(f, "at {at:#05x}: {error}"),
            StepError::BadTimer { number, at } => {
                write!(
                    f,
                    "at {at:#05x}: invalid timer register {number} (valid: 0-2)"
                )
            }
            StepError::BadMsgCommand { word, at } => {
                write!(f, "at {at:#05x}: invalid message command {word:#06x}")
            }
            StepError::MsgPortEmpty { at } => {
                write!(f, "at {at:#05x}: read of r15 with empty outgoing FIFO")
            }
            StepError::StepLimit { limit } => write!(f, "exceeded step budget of {limit}"),
            StepError::Stuck { at } => {
                write!(
                    f,
                    "asleep forever at {at}: no pending events or active timers"
                )
            }
        }
    }
}

impl std::error::Error for StepError {}

/// A snapshot of the core's cumulative statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreStats {
    /// Dynamic instructions executed.
    pub instructions: u64,
    /// Cycles: IMEM words fetched + data-memory accesses (see
    /// [`crate::EnergyAccountant::cycles`]).
    pub cycles: u64,
    /// Total instruction energy.
    pub energy: Energy,
    /// Time spent executing instructions (including wake-ups).
    pub busy_time: SimDuration,
    /// Time spent asleep.
    pub sleep_time: SimDuration,
    /// Idle→active transitions.
    pub wakeups: u64,
    /// Handlers dispatched from the event queue.
    pub handlers_dispatched: u64,
    /// Event tokens dropped at a full queue.
    pub events_dropped: u64,
    /// Event tokens successfully enqueued.
    pub events_inserted: u64,
    /// Current simulated time.
    pub now: SimTime,
}

impl CoreStats {
    /// Average energy per instruction (zero when nothing executed).
    pub fn energy_per_instruction(&self) -> Energy {
        if self.instructions == 0 {
            Energy::ZERO
        } else {
            self.energy / self.instructions as f64
        }
    }

    /// Throughput over busy time, in MIPS (zero when idle).
    pub fn mips(&self) -> f64 {
        if self.busy_time.is_zero() {
            0.0
        } else {
            self.instructions as f64 / self.busy_time.as_us()
        }
    }

    /// The change from an earlier snapshot — used to measure one handler.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is not actually earlier (counter-wise).
    pub fn since(&self, earlier: &CoreStats) -> CoreStats {
        CoreStats {
            instructions: self.instructions - earlier.instructions,
            cycles: self.cycles - earlier.cycles,
            energy: self.energy - earlier.energy,
            busy_time: self.busy_time - earlier.busy_time,
            sleep_time: self.sleep_time - earlier.sleep_time,
            wakeups: self.wakeups - earlier.wakeups,
            handlers_dispatched: self.handlers_dispatched - earlier.handlers_dispatched,
            events_dropped: self.events_dropped - earlier.events_dropped,
            events_inserted: self.events_inserted - earlier.events_inserted,
            now: self.now,
        }
    }
}

/// The SNAP/LE processor simulator.
///
/// Fields are `pub(crate)` for one consumer only: `crate::snapshot`,
/// which exports and restores the full core state. Everything else goes
/// through the accessors.
#[derive(Debug, Clone)]
pub struct Processor {
    pub(crate) config: CoreConfig,
    pub(crate) regs: RegFile,
    pub(crate) imem: MemBank,
    pub(crate) decode: DecodeCache,
    /// Tier-2 compiled basic blocks (empty unless installed). Clones
    /// share the compiled image Arc-CoW style, like the decode cache.
    pub(crate) aot: AotImage,
    pub(crate) dmem: MemBank,
    pub(crate) event_queue: EventQueue,
    pub(crate) timer: TimerCoprocessor,
    pub(crate) msg: MsgCoprocessor,
    pub(crate) lfsr: Lfsr16,
    pub(crate) handler_table: [Addr; EVENT_TABLE_ENTRIES],
    pub(crate) pc: Addr,
    pub(crate) state: CoreState,
    pub(crate) now: SimTime,
    pub(crate) acct: EnergyAccountant,
    pub(crate) profile: HandlerProfile,
    /// Per-dispatch telemetry; `None` (the default) is the zero-cost
    /// path — execution is bit-identical either way. Boxed: it is off
    /// on most cores, and inline it would add 96 B to every one.
    pub(crate) sampler: Option<Box<HandlerSampler>>,
    pub(crate) current_event: Option<EventKind>,
    pub(crate) sleep_time: SimDuration,
    pub(crate) wakeup_time: SimDuration,
    pub(crate) wakeups: u64,
    pub(crate) handlers_dispatched: u64,
    /// `swev` instructions executed (attempted software posts).
    pub(crate) sw_posted: u64,
    /// `swev` posts the event queue accepted (not dropped).
    pub(crate) sw_enqueued: u64,
}

impl Processor {
    /// A processor in its power-on state: PC 0, running boot code.
    pub fn new(config: CoreConfig) -> Processor {
        Processor {
            regs: RegFile::new(),
            imem: MemBank::new(Bank::Imem),
            decode: DecodeCache::new(),
            aot: AotImage::default(),
            dmem: MemBank::new(Bank::Dmem),
            event_queue: EventQueue::new(),
            timer: TimerCoprocessor::default(),
            msg: MsgCoprocessor::new(),
            lfsr: Lfsr16::default(),
            handler_table: [0; EVENT_TABLE_ENTRIES],
            pc: 0,
            state: CoreState::Running,
            now: SimTime::ZERO,
            acct: EnergyAccountant::with_bus(config.operating_point, config.bus),
            profile: HandlerProfile::new(),
            sampler: None,
            current_event: None,
            sleep_time: SimDuration::ZERO,
            wakeup_time: SimDuration::ZERO,
            wakeups: 0,
            handlers_dispatched: 0,
            sw_posted: 0,
            sw_enqueued: 0,
            config,
        }
    }

    // ---- image loading ----

    /// Encode `program` and load it into IMEM starting at address 0.
    ///
    /// # Errors
    ///
    /// Returns an error when the encoded program exceeds IMEM.
    pub fn load_program(
        &mut self,
        program: &[Instruction],
    ) -> Result<(), crate::memory::LoadError> {
        let words: Vec<Word> = program.iter().flat_map(|i| i.encode()).collect();
        self.imem.load(0, &words)?;
        self.decode.invalidate_all();
        self.aot = AotImage::default();
        Ok(())
    }

    /// Load a raw word image into IMEM at `base`.
    ///
    /// # Errors
    ///
    /// Returns an error when the image exceeds IMEM.
    pub fn load_image(
        &mut self,
        base: Addr,
        image: &[Word],
    ) -> Result<(), crate::memory::LoadError> {
        self.imem.load(base, image)?;
        self.decode.invalidate_all();
        self.aot = AotImage::default();
        Ok(())
    }

    /// Compile tier-2 AOT blocks for `regions` — handler CFGs a static
    /// analysis (snap-lint) has proven done-terminating — and install
    /// them. Replaces any previously installed image; loading a new
    /// program or image drops it (install after loading). Only
    /// consulted when the engine is [`Engine::Aot`].
    ///
    /// Execution remains bit-identical to the interpreter: blocks only
    /// cover closed instructions inside the given regions, and any
    /// unproven edge falls back to tier 1 / the interpreter. `isw`
    /// stores into a compiled region drop the affected blocks.
    pub fn install_aot(&mut self, regions: &[AotRegion]) {
        let image = AotImage::compile(regions, |a| {
            self.decode_at(a).ok().map(|p| (p.ins, p.costs))
        });
        self.aot = image;
    }

    /// Number of tier-2 compiled blocks currently installed.
    pub fn aot_block_count(&self) -> usize {
        self.aot.block_count()
    }

    /// Load a raw word image into DMEM at `base`.
    ///
    /// # Errors
    ///
    /// Returns an error when the image exceeds DMEM.
    pub fn load_data(
        &mut self,
        base: Addr,
        image: &[Word],
    ) -> Result<(), crate::memory::LoadError> {
        self.dmem.load(base, image)
    }

    // ---- accessors ----

    /// The register file.
    pub fn regs(&self) -> &RegFile {
        &self.regs
    }

    /// Mutable register file (for test fixtures).
    pub fn regs_mut(&mut self) -> &mut RegFile {
        &mut self.regs
    }

    /// The data memory.
    pub fn dmem(&self) -> &MemBank {
        &self.dmem
    }

    /// The instruction memory.
    pub fn imem(&self) -> &MemBank {
        &self.imem
    }

    /// The current activity state.
    pub fn state(&self) -> CoreState {
        self.state
    }

    /// The current program counter (word address).
    pub fn pc(&self) -> Addr {
        self.pc
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The configuration this core was built with.
    pub fn config(&self) -> &CoreConfig {
        &self.config
    }

    /// The energy accountant (per-class and per-component detail).
    pub fn acct(&self) -> &EnergyAccountant {
        &self.acct
    }

    /// The per-handler profile (instructions/energy per event kind).
    pub fn profile(&self) -> &HandlerProfile {
        &self.profile
    }

    /// Start per-dispatch sampling (telemetry), retaining up to `cap`
    /// handler samples and recording event-queue enqueue times so each
    /// sample carries its token's queue wait.
    ///
    /// Observation-only: execution, timing and energy are bit-identical
    /// with sampling on or off. Enable it before running — tokens
    /// already queued report a zero wait.
    pub fn enable_sampling(&mut self, cap: usize) {
        if self.sampler.is_none() {
            self.sampler = Some(Box::new(HandlerSampler::new(cap)));
            self.event_queue.enable_stamps();
        }
    }

    /// The per-dispatch samples, when sampling was enabled.
    pub fn sampler(&self) -> Option<&HandlerSampler> {
        self.sampler.as_deref()
    }

    /// The message coprocessor (observability).
    pub fn msg(&self) -> &MsgCoprocessor {
        &self.msg
    }

    /// The timer coprocessor (observability).
    pub fn timers(&self) -> &TimerCoprocessor {
        &self.timer
    }

    /// The event queue (observability).
    pub fn event_queue(&self) -> &EventQueue {
        &self.event_queue
    }

    /// The handler-table entry for an event.
    pub fn handler(&self, event: EventKind) -> Addr {
        self.handler_table[event.index()]
    }

    /// The event whose handler is running, if any.
    pub fn current_event(&self) -> Option<EventKind> {
        self.current_event
    }

    /// The current state of the `rand` LFSR.
    pub fn lfsr_state(&self) -> u16 {
        self.lfsr.state()
    }

    /// A snapshot of cumulative statistics.
    pub fn stats(&self) -> CoreStats {
        CoreStats {
            instructions: self.acct.instructions(),
            cycles: self.acct.cycles(),
            energy: self.acct.total_energy(),
            busy_time: self.acct.busy_time() + self.wakeup_time,
            sleep_time: self.sleep_time,
            wakeups: self.wakeups,
            handlers_dispatched: self.handlers_dispatched,
            events_dropped: self.event_queue.dropped(),
            events_inserted: self.event_queue.inserted(),
            now: self.now,
        }
    }

    // ---- environment-side event delivery ----

    /// Deliver a received radio word. Returns `true` when the word was
    /// accepted (receiver enabled and the event token enqueued).
    pub fn post_radio_rx(&mut self, word: Word) -> bool {
        match self.msg.radio_rx_word(word) {
            Some(ev) => self.post_event(ev),
            None => false,
        }
    }

    /// Signal that the radio finished serializing the last transmit word.
    /// Returns `true` when the token was enqueued.
    pub fn post_radio_tx_done(&mut self) -> bool {
        let ev = self.msg.radio_tx_done();
        self.post_event(ev)
    }

    /// Deliver a sensor reading in answer to a `Query`. Returns `true`
    /// when the token was enqueued.
    pub fn post_sensor_reply(&mut self, reading: Word) -> bool {
        let ev = self.msg.sensor_reply(reading);
        self.post_event(ev)
    }

    /// Assert the external sensor-interrupt pin. Returns `true` when the
    /// token was enqueued.
    pub fn post_sensor_irq(&mut self) -> bool {
        let ev = self.msg.sensor_irq();
        self.post_event(ev)
    }

    /// Enqueue an event token stamped with the current time.
    fn post_event(&mut self, ev: EventKind) -> bool {
        self.event_queue
            .push_at(EventToken::new(ev), self.now.as_ps())
    }

    // ---- time ----

    /// The earliest pending timer expiry, if any.
    pub fn next_timer_expiry(&self) -> Option<SimTime> {
        self.timer.next_expiry()
    }

    /// Let idle time pass while the core sleeps: advance to
    /// `min(to, next timer expiry)`, firing any timer that becomes due.
    /// Returns the new current time.
    ///
    /// Only meaningful while [`CoreState::Asleep`]; while running, time
    /// advances through instruction execution.
    pub fn advance_idle(&mut self, to: SimTime) -> SimTime {
        let target = match self.timer.next_expiry() {
            Some(exp) if exp < to => exp,
            _ => to,
        };
        if target > self.now {
            if self.state == CoreState::Asleep {
                self.sleep_time += target - self.now;
            }
            self.now = target;
        }
        self.fire_due_timers();
        self.now
    }

    /// Queue a token for every timer due now. Runs after every
    /// instruction; with no timer due it is one compare.
    fn fire_due_timers(&mut self) {
        let (now, queue) = (self.now, &mut self.event_queue);
        self.timer.poll(now, |ev| {
            queue.push_at(EventToken::new(ev), now.as_ps());
        });
    }

    // ---- execution ----

    /// Advance the core by one unit of work: execute one instruction,
    /// or wake up, or report that it is asleep/halted.
    ///
    /// ```
    /// use snap_core::{CoreConfig, Processor, StepOutcome};
    /// use snap_isa::Instruction;
    ///
    /// let mut cpu = Processor::new(CoreConfig::default());
    /// cpu.load_program(&[Instruction::Nop, Instruction::Done])?;
    /// assert!(matches!(cpu.step()?, StepOutcome::Executed { .. })); // nop
    /// cpu.step()?; // done: queue empty, go to sleep
    /// assert!(matches!(cpu.step()?, StepOutcome::Asleep));
    /// cpu.post_sensor_irq();
    /// assert!(matches!(cpu.step()?, StepOutcome::Woke { .. }));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// See [`StepError`].
    pub fn step(&mut self) -> Result<StepOutcome, StepError> {
        match self.state {
            CoreState::Halted => Ok(StepOutcome::Halted),
            CoreState::Asleep => {
                self.fire_due_timers();
                match self.event_queue.pop_with_stamp() {
                    None => Ok(StepOutcome::Asleep),
                    Some((token, stamp)) => {
                        // Idle→active: eighteen gate delays (paper §4.3).
                        let wake = self.acct.timing_model().wakeup_latency();
                        self.now += wake;
                        self.wakeup_time += wake;
                        self.wakeups += 1;
                        self.dispatch(token, stamp);
                        Ok(StepOutcome::Woke {
                            event: token.kind(),
                        })
                    }
                }
            }
            CoreState::Running => self.exec_one(),
        }
    }

    /// Execute instructions in a tight loop while the core is
    /// [`CoreState::Running`], stopping at the first of:
    ///
    /// * the core's time reaching `limit` (checked at instruction
    ///   boundaries, exactly like a per-instruction [`Processor::step`]
    ///   loop would),
    /// * an [`EnvAction`] being produced (returned in the burst so the
    ///   environment can apply it before execution resumes),
    /// * `done`/`halt` leaving the running state, or
    /// * `budget` instructions having executed.
    ///
    /// This is the batched fast path for node simulation: it executes
    /// the same instruction sequence as repeated `step()` calls
    /// (bit-identical state, energy and timing) without constructing a
    /// [`StepOutcome`] round-trip per dynamic instruction. A call while
    /// asleep or halted executes nothing — waking still goes through
    /// [`Processor::step`].
    ///
    /// Which translation tier runs here is the configured
    /// [`Engine`]; all tiers honor the same boundary conditions (a
    /// fused trace or compiled block only replays when *all* of it fits
    /// the step budget, the time limit and the next timer expiry, since
    /// its constituents cannot produce actions or leave the running
    /// state).
    ///
    /// # Errors
    ///
    /// See [`StepError`].
    pub fn run_burst(&mut self, limit: SimTime, budget: u64) -> Result<Burst, StepError> {
        match self.config.engine {
            Engine::Interp => self.run_burst_interp(limit, budget),
            Engine::Fused => self.run_burst_fast(limit, budget, false),
            Engine::Aot => self.run_burst_fast(limit, budget, true),
        }
    }

    /// The reference burst loop: one [`Processor::exec_one`] per
    /// dynamic instruction.
    fn run_burst_interp(&mut self, limit: SimTime, budget: u64) -> Result<Burst, StepError> {
        let mut steps = 0u64;
        while self.state == CoreState::Running && self.now < limit && steps < budget {
            let outcome = self.exec_one()?;
            steps += 1;
            if let StepOutcome::Executed {
                action: Some(action),
                ..
            } = outcome
            {
                return Ok(Burst {
                    steps,
                    action: Some(action),
                });
            }
        }
        Ok(Burst {
            steps,
            action: None,
        })
    }

    /// The translated burst loop: replay tier-2 compiled blocks (when
    /// `aot`) and tier-1 fused traces where available, interpreting
    /// single instructions everywhere else.
    fn run_burst_fast(
        &mut self,
        limit: SimTime,
        budget: u64,
        aot: bool,
    ) -> Result<Burst, StepError> {
        let mut steps = 0u64;
        // Replay `$trace` while it fits; `false` when it does not fit
        // at all. Written as a macro so the trace can stay borrowed from
        // `self.decode`/`self.aot` while the context borrows the
        // sibling fields.
        macro_rules! try_trace {
            ($trace:expr) => {{
                let mut cx = ExecCtx {
                    regs: &mut self.regs,
                    dmem: &mut self.dmem,
                    acct: &mut self.acct,
                    bucket: self.profile.bucket_mut(self.current_event),
                    now: &mut self.now,
                    pc: &mut self.pc,
                };
                let replayed = fuse::exec_trace_burst(
                    $trace,
                    budget - steps,
                    limit,
                    self.timer.next_expiry(),
                    &mut cx,
                );
                steps += replayed;
                replayed > 0
            }};
        }
        while self.state == CoreState::Running && self.now < limit && steps < budget {
            let at = self.pc;
            if aot {
                if let Some(block) = self.aot.block_at(at) {
                    if try_trace!(block) {
                        continue;
                    }
                }
            }
            match self.decode.fused_get(at) {
                FusedSlot::Trace(trace) => {
                    if try_trace!(&**trace) {
                        continue;
                    }
                }
                FusedSlot::NoFuse => {}
                FusedSlot::Unknown => {
                    let slot = fuse::build_trace(at, |a| {
                        self.decode
                            .get(a)
                            .map(|p| (p.ins, p.costs))
                            .or_else(|| self.decode_at(a).ok().map(|p| (p.ins, p.costs)))
                    });
                    self.decode.fused_set(at, slot);
                    continue;
                }
            }
            // No trace, or it does not fit: interpret one instruction,
            // exactly as the reference loop would.
            let outcome = self.exec_one()?;
            steps += 1;
            if let StepOutcome::Executed {
                action: Some(action),
                ..
            } = outcome
            {
                return Ok(Burst {
                    steps,
                    action: Some(action),
                });
            }
        }
        Ok(Burst {
            steps,
            action: None,
        })
    }

    /// Handlers dispatched from the event queue so far (cheap accessor
    /// for batch-loop callers that only need this one counter).
    pub fn handlers_dispatched(&self) -> u64 {
        self.handlers_dispatched
    }

    /// `swev` instructions executed so far (attempted software posts).
    pub fn sw_posted(&self) -> u64 {
        self.sw_posted
    }

    /// `swev` posts the event queue accepted so far.
    pub fn sw_enqueued(&self) -> u64 {
        self.sw_enqueued
    }

    /// The event queue's high-water mark: the most tokens ever pending
    /// at once (the dispatch-depth figure the static event-flow
    /// analysis bounds).
    pub fn queue_high_water(&self) -> usize {
        self.event_queue.max_len()
    }

    fn dispatch(&mut self, token: EventToken, stamp_ps: u64) {
        self.pc = self.handler_table[token.table_index()];
        self.state = CoreState::Running;
        self.handlers_dispatched += 1;
        self.current_event = Some(token.kind());
        self.profile.note_dispatch(token.kind());
        if let Some(sampler) = self.sampler.as_mut() {
            // `begin` closes any still-open sample first (chained
            // dispatch from `done`), then opens this one. The token's
            // wait includes the wake-up latency just charged. The
            // occupancy at this boundary counts the token just popped:
            // it is still in the system, about to run.
            let wait = SimDuration::from_ps(self.now.as_ps().saturating_sub(stamp_ps));
            let at = crate::sampler::DispatchCounters {
                instructions: self.acct.instructions(),
                energy: self.acct.total_energy(),
                sw_posted: self.sw_posted,
                sw_enqueued: self.sw_enqueued,
                inserted: self.event_queue.inserted(),
            };
            sampler.begin(token.kind(), self.now, at, wait, self.event_queue.len() + 1);
        }
    }

    /// Close the sampler's open handler sample (if any) at the current
    /// counters — the handler just ended via `done`-to-sleep or `halt`.
    fn close_sample(&mut self) {
        if let Some(sampler) = self.sampler.as_mut() {
            let at = crate::sampler::DispatchCounters {
                instructions: self.acct.instructions(),
                energy: self.acct.total_energy(),
                sw_posted: self.sw_posted,
                sw_enqueued: self.sw_enqueued,
                inserted: self.event_queue.inserted(),
            };
            sampler.close(self.now, at, self.event_queue.len());
        }
    }

    /// Fetch, decode and derive model costs for the instruction at
    /// `at`, bypassing the decode cache (the cache-fill path).
    fn decode_at(&self, at: Addr) -> Result<Predecoded, StepError> {
        let first = self.imem.read(at);
        let second = if Instruction::first_word_is_two_word(first) {
            Some(self.imem.read(at.wrapping_add(1)))
        } else {
            None
        };
        let ins =
            Instruction::decode(first, second).map_err(|error| StepError::Decode { error, at })?;
        Ok(Predecoded {
            ins,
            costs: self.acct.cost_of(&ins),
        })
    }

    /// Predecode every decodable IMEM address into the cache.
    ///
    /// Entries are the same pure functions of the IMEM words and the
    /// operating point that lazy cache fills compute, so eager filling
    /// is observationally identical. Fleets predecode one template node
    /// and clone it: the copy-on-write cache is then shared read-only
    /// across every clone and never faults in a slot at run time.
    /// Addresses that don't hold a valid instruction (data, immediate
    /// words) are left empty, exactly as the lazy path would.
    pub fn predecode_all(&mut self) {
        for at in 0..MEM_WORDS as Addr {
            if let Ok(entry) = self.decode_at(at) {
                self.decode.insert(at, entry);
            }
        }
        // Resolve every tier-1 fusion verdict too, so fleet clones
        // share one fully-built fused image and never copy-on-write the
        // verdict array just to fault in a trace lazily.
        for at in 0..MEM_WORDS as Addr {
            let slot = fuse::build_trace(at, |a| self.decode.get(a).map(|p| (p.ins, p.costs)));
            self.decode.fused_set(at, slot);
        }
    }

    /// Fetch, decode and execute the instruction at PC.
    fn exec_one(&mut self) -> Result<StepOutcome, StepError> {
        let at = self.pc;
        if self.decode.get(at).is_none() {
            let entry = self.decode_at(at)?;
            self.decode.insert(at, entry);
        }
        // Borrow the entry out of the cache rather than copying it:
        // `self.decode` and `self.acct`/`self.profile` are disjoint
        // fields, so the borrows below coexist.
        let entry: &Predecoded = self.decode.get(at).expect("just inserted");
        let ins = entry.ins;

        // Charge energy and advance time before the semantic effects so
        // that timer expiries observed below see the post-instruction
        // time, as the hardware would.
        let energy_before = self.acct.total_energy();
        let latency = self.acct.record_costs(&entry.costs);
        self.now += latency;
        self.profile.note_instruction(
            self.current_event,
            self.acct.total_energy() - energy_before,
            latency,
        );

        let fallthrough = at.wrapping_add(ins.word_count() as Addr);
        let mut next_pc = fallthrough;
        let mut action = None;

        macro_rules! rd_op {
            ($r:expr) => {
                self.read_operand($r, at)?
            };
        }

        match ins {
            Instruction::AluReg { op, rd, rs } => {
                let b = rd_op!(rs);
                let result = match op {
                    AluOp::Mov => b,
                    AluOp::Not => !b,
                    AluOp::Neg => b.wrapping_neg(),
                    _ => {
                        let a = rd_op!(rd);
                        fuse::alu_binary(&mut self.regs, op, a, b)
                    }
                };
                action = self.write_operand(rd, result, at)?;
            }
            Instruction::AluImm { op, rd, imm } => {
                let result = match op {
                    AluImmOp::Li => imm,
                    _ => {
                        let a = rd_op!(rd);
                        match op {
                            AluImmOp::Addi => fuse::alu_binary(&mut self.regs, AluOp::Add, a, imm),
                            AluImmOp::Subi => fuse::alu_binary(&mut self.regs, AluOp::Sub, a, imm),
                            AluImmOp::Andi => a & imm,
                            AluImmOp::Ori => a | imm,
                            AluImmOp::Xori => a ^ imm,
                            AluImmOp::Slti => ((a as i16) < (imm as i16)) as Word,
                            AluImmOp::Sltiu => (a < imm) as Word,
                            AluImmOp::Li => unreachable!(),
                        }
                    }
                };
                action = self.write_operand(rd, result, at)?;
            }
            Instruction::ShiftReg { op, rd, rs } => {
                let amount = (rd_op!(rs) & 0xf) as u32;
                let a = rd_op!(rd);
                action = self.write_operand(rd, fuse::shift(op, a, amount), at)?;
            }
            Instruction::ShiftImm { op, rd, amount } => {
                let a = rd_op!(rd);
                action = self.write_operand(rd, fuse::shift(op, a, amount as u32), at)?;
            }
            Instruction::Load { rd, base, offset } => {
                let addr = rd_op!(base).wrapping_add(offset);
                let value = self.dmem.read(addr);
                action = self.write_operand(rd, value, at)?;
            }
            Instruction::Store { rs, base, offset } => {
                let addr = rd_op!(base).wrapping_add(offset);
                let value = rd_op!(rs);
                self.dmem.write(addr, value);
            }
            Instruction::ImemLoad { rd, base, offset } => {
                let addr = rd_op!(base).wrapping_add(offset);
                let value = self.imem.read(addr);
                action = self.write_operand(rd, value, at)?;
            }
            Instruction::ImemStore { rs, base, offset } => {
                let addr = rd_op!(base).wrapping_add(offset);
                let value = rd_op!(rs);
                self.imem.write(addr, value);
                self.decode.invalidate_write(addr);
                self.aot.invalidate_write(addr);
            }
            Instruction::Branch {
                cond,
                ra,
                rb,
                target,
            } => {
                let a = rd_op!(ra);
                let b = if cond.is_unary() { 0 } else { rd_op!(rb) };
                if cond.eval(a, b) {
                    next_pc = target;
                }
            }
            Instruction::Jmp { target } => next_pc = target,
            Instruction::Jal { rd, target } => {
                action = self.write_operand(rd, fallthrough, at)?;
                next_pc = target;
            }
            Instruction::Jr { rs } => next_pc = rd_op!(rs),
            Instruction::Jalr { rd, rs } => {
                let target = rd_op!(rs);
                action = self.write_operand(rd, fallthrough, at)?;
                next_pc = target;
            }
            Instruction::SchedHi { rt, rv } => {
                let n = rd_op!(rt);
                let v = rd_op!(rv);
                if !self.timer.sched_hi(n, v) {
                    return Err(StepError::BadTimer { number: n, at });
                }
            }
            Instruction::SchedLo { rt, rv } => {
                let n = rd_op!(rt);
                let v = rd_op!(rv);
                if !self.timer.sched_lo(n, v, self.now) {
                    return Err(StepError::BadTimer { number: n, at });
                }
            }
            Instruction::Cancel { rt } => {
                let n = rd_op!(rt);
                if n as usize >= crate::timer_cop::NUM_TIMERS {
                    return Err(StepError::BadTimer { number: n, at });
                }
                if let Some(ev) = self.timer.cancel(n) {
                    self.post_event(ev);
                }
            }
            Instruction::Bfs { rd, rs, mask } => {
                let field = rd_op!(rs);
                let a = rd_op!(rd);
                action = self.write_operand(rd, (a & !mask) | (field & mask), at)?;
            }
            Instruction::Rand { rd } => {
                let value = self.lfsr.next_word();
                action = self.write_operand(rd, value, at)?;
            }
            Instruction::Seed { rs } => {
                let seed = rd_op!(rs);
                self.lfsr.seed(seed);
            }
            Instruction::Done => {
                self.fire_due_timers();
                match self.event_queue.pop_with_stamp() {
                    Some((token, stamp)) => {
                        // Dispatch straight into the next handler: the
                        // fetch never returns to the word after `done`.
                        self.dispatch(token, stamp);
                        next_pc = self.pc;
                    }
                    None => {
                        self.state = CoreState::Asleep;
                        self.current_event = None;
                        self.close_sample();
                    }
                }
            }
            Instruction::SetAddr { rev, raddr } => {
                let ev = rd_op!(rev) as usize % EVENT_TABLE_ENTRIES;
                let addr = rd_op!(raddr);
                self.handler_table[ev] = addr;
            }
            Instruction::Nop => {}
            Instruction::Halt => {
                self.state = CoreState::Halted;
                // Record the partial handler so a halting run still
                // reports the work done up to the stop.
                self.close_sample();
            }
            Instruction::SwEvent { rn } => {
                let n = rd_op!(rn) as usize % EVENT_TABLE_ENTRIES;
                let kind = EventKind::from_index(n).expect("index < 8");
                self.sw_posted += 1;
                if self.post_event(kind) {
                    self.sw_enqueued += 1;
                }
            }
        }

        if self.state == CoreState::Running {
            self.pc = next_pc;
        }
        self.fire_due_timers();
        Ok(StepOutcome::Executed { action, ins, at })
    }

    /// Read an operand register; `r15` pops the message coprocessor.
    fn read_operand(&mut self, reg: Reg, at: Addr) -> Result<Word, StepError> {
        if reg.is_msg_port() {
            self.msg.core_read().ok_or(StepError::MsgPortEmpty { at })
        } else {
            Ok(self.regs.read(reg))
        }
    }

    /// Write an operand register; `r15` pushes to the message
    /// coprocessor and may produce an environment action.
    fn write_operand(
        &mut self,
        reg: Reg,
        value: Word,
        at: Addr,
    ) -> Result<Option<EnvAction>, StepError> {
        if reg.is_msg_port() {
            self.msg
                .core_write(value)
                .map_err(|e| StepError::BadMsgCommand { word: e.word, at })
        } else {
            self.regs.write(reg, value);
            Ok(None)
        }
    }

    // ---- standalone run helpers ----

    /// Run until the core goes to sleep (or halts), collecting the
    /// environment actions produced along the way.
    ///
    /// Pending timer expiries are fast-forwarded: if the core sleeps with
    /// an active timer, idle time passes instantly until it fires.
    ///
    /// Running stretches go through [`Processor::run_burst`] (so the
    /// configured [`Engine`] applies); the unit accounting is exactly
    /// the historical `step()` loop's — each executed instruction, each
    /// wake-up, and the final asleep/halted observation all consume one
    /// of `max_steps`.
    ///
    /// # Errors
    ///
    /// Any [`StepError`]; [`StepError::StepLimit`] after `max_steps`.
    pub fn run_until_idle(&mut self, max_steps: u64) -> Result<Vec<EnvAction>, StepError> {
        let no_limit = SimTime::from_ps(u64::MAX);
        let mut actions = Vec::new();
        let mut remaining = max_steps;
        loop {
            match self.state {
                CoreState::Running => {
                    if remaining == 0 {
                        return Err(StepError::StepLimit { limit: max_steps });
                    }
                    let burst = self.run_burst(no_limit, remaining)?;
                    remaining -= burst.steps;
                    if let Some(a) = burst.action {
                        actions.push(a);
                    }
                }
                CoreState::Asleep | CoreState::Halted => {
                    if remaining == 0 {
                        return Err(StepError::StepLimit { limit: max_steps });
                    }
                    remaining -= 1;
                    match self.step()? {
                        StepOutcome::Asleep | StepOutcome::Halted => return Ok(actions),
                        // Woke: a handler is running now.
                        _ => {}
                    }
                }
            }
        }
    }

    /// Run to `halt`, fast-forwarding through sleeps (timer expiries fire
    /// instantly; a sleep with no timer and no events is [`StepError::Stuck`]).
    ///
    /// Running stretches go through [`Processor::run_burst`]; unit
    /// accounting matches the historical `step()` loop, as in
    /// [`Processor::run_until_idle`].
    ///
    /// # Errors
    ///
    /// Any [`StepError`]; [`StepError::StepLimit`] after `max_steps`.
    pub fn run_to_halt(&mut self, max_steps: u64) -> Result<Vec<EnvAction>, StepError> {
        let no_limit = SimTime::from_ps(u64::MAX);
        let mut actions = Vec::new();
        let mut remaining = max_steps;
        loop {
            match self.state {
                CoreState::Running => {
                    if remaining == 0 {
                        return Err(StepError::StepLimit { limit: max_steps });
                    }
                    let burst = self.run_burst(no_limit, remaining)?;
                    remaining -= burst.steps;
                    if let Some(a) = burst.action {
                        actions.push(a);
                    }
                }
                CoreState::Asleep => {
                    if remaining == 0 {
                        return Err(StepError::StepLimit { limit: max_steps });
                    }
                    remaining -= 1;
                    if matches!(self.step()?, StepOutcome::Asleep) {
                        match self.next_timer_expiry() {
                            Some(at) => {
                                self.advance_idle(at);
                            }
                            None => return Err(StepError::Stuck { at: self.now }),
                        }
                    }
                }
                CoreState::Halted => {
                    if remaining == 0 {
                        return Err(StepError::StepLimit { limit: max_steps });
                    }
                    return Ok(actions);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_isa::{BranchCond, MsgCommand, EVENT_QUEUE_DEPTH};

    fn cpu_with(prog: &[Instruction]) -> Processor {
        let mut cpu = Processor::new(CoreConfig::default());
        cpu.load_program(prog).unwrap();
        cpu
    }

    fn li(rd: Reg, imm: Word) -> Instruction {
        Instruction::AluImm {
            op: AluImmOp::Li,
            rd,
            imm,
        }
    }

    #[test]
    fn boot_runs_until_halt() {
        let mut cpu = cpu_with(&[
            li(Reg::R1, 40),
            li(Reg::R2, 2),
            Instruction::AluReg {
                op: AluOp::Add,
                rd: Reg::R1,
                rs: Reg::R2,
            },
            Instruction::Halt,
        ]);
        cpu.run_to_halt(100).unwrap();
        assert_eq!(cpu.regs().read(Reg::R1), 42);
        assert_eq!(cpu.state(), CoreState::Halted);
        assert_eq!(cpu.stats().instructions, 4);
    }

    #[test]
    fn carry_chains_across_addc() {
        // 0xFFFF + 1 = 0x0000 carry 1; then 0 + 0 + carry = 1.
        let mut cpu = cpu_with(&[
            li(Reg::R1, 0xffff),
            li(Reg::R2, 1),
            li(Reg::R3, 0),
            li(Reg::R4, 0),
            Instruction::AluReg {
                op: AluOp::Add,
                rd: Reg::R1,
                rs: Reg::R2,
            },
            Instruction::AluReg {
                op: AluOp::Addc,
                rd: Reg::R3,
                rs: Reg::R4,
            },
            Instruction::Halt,
        ]);
        cpu.run_to_halt(100).unwrap();
        assert_eq!(cpu.regs().read(Reg::R1), 0);
        assert_eq!(cpu.regs().read(Reg::R3), 1);
    }

    #[test]
    fn subc_borrows() {
        // 0 - 1 = 0xFFFF borrow; then 5 - 0 - borrow = 4.
        let mut cpu = cpu_with(&[
            li(Reg::R1, 0),
            li(Reg::R2, 1),
            li(Reg::R3, 5),
            li(Reg::R4, 0),
            Instruction::AluReg {
                op: AluOp::Sub,
                rd: Reg::R1,
                rs: Reg::R2,
            },
            Instruction::AluReg {
                op: AluOp::Subc,
                rd: Reg::R3,
                rs: Reg::R4,
            },
            Instruction::Halt,
        ]);
        cpu.run_to_halt(100).unwrap();
        assert_eq!(cpu.regs().read(Reg::R1), 0xffff);
        assert_eq!(cpu.regs().read(Reg::R3), 4);
    }

    #[test]
    fn memory_round_trip_and_wrap() {
        let mut cpu = cpu_with(&[
            li(Reg::R1, 0x1234),
            li(Reg::R2, 100),
            Instruction::Store {
                rs: Reg::R1,
                base: Reg::R2,
                offset: 5,
            },
            Instruction::Load {
                rd: Reg::R3,
                base: Reg::R2,
                offset: 5,
            },
            Instruction::Halt,
        ]);
        cpu.run_to_halt(100).unwrap();
        assert_eq!(cpu.regs().read(Reg::R3), 0x1234);
        assert_eq!(cpu.dmem().read(105), 0x1234);
    }

    #[test]
    fn branch_and_jump_flow() {
        // r1 = 3; loop: r2 += r1; r1 -= 1; bnez r1, loop; halt
        // Result: r2 = 3+2+1 = 6.
        let prog = [
            li(Reg::R1, 3), // words 0..2
            li(Reg::R2, 0), // words 2..4
            Instruction::AluReg {
                op: AluOp::Add,
                rd: Reg::R2,
                rs: Reg::R1,
            }, // word 4
            Instruction::AluImm {
                op: AluImmOp::Subi,
                rd: Reg::R1,
                imm: 1,
            }, // words 5..7
            Instruction::Branch {
                cond: BranchCond::Nez,
                ra: Reg::R1,
                rb: Reg::R0,
                target: 4,
            },
            Instruction::Halt,
        ];
        let mut cpu = cpu_with(&prog);
        cpu.run_to_halt(100).unwrap();
        assert_eq!(cpu.regs().read(Reg::R2), 6);
    }

    #[test]
    fn jal_links_return_address() {
        // 0: jal r14, 4   (words 0..2)
        // 2: halt         (word 2)
        // 3: (pad)
        // 4: jr r14
        let prog = [
            Instruction::Jal {
                rd: Reg::R14,
                target: 4,
            },
            Instruction::Halt,
            Instruction::Nop,
            Instruction::Jr { rs: Reg::R14 },
        ];
        let mut cpu = cpu_with(&prog);
        cpu.run_to_halt(100).unwrap();
        assert_eq!(cpu.state(), CoreState::Halted);
        assert_eq!(cpu.regs().read(Reg::R14), 2);
    }

    #[test]
    fn done_with_empty_queue_sleeps() {
        let mut cpu = cpu_with(&[Instruction::Done]);
        let actions = cpu.run_until_idle(10).unwrap();
        assert!(actions.is_empty());
        assert_eq!(cpu.state(), CoreState::Asleep);
        assert_eq!(cpu.step().unwrap(), StepOutcome::Asleep);
    }

    #[test]
    fn event_wakes_core_and_dispatches_handler() {
        // Boot: setaddr(sensor-irq -> 20); done.
        // Handler at 20: r5 = 99; done.
        let boot = [
            li(Reg::R1, EventKind::SensorIrq.index() as Word),
            li(Reg::R2, 20),
            Instruction::SetAddr {
                rev: Reg::R1,
                raddr: Reg::R2,
            },
            Instruction::Done,
        ];
        let handler = [li(Reg::R5, 99), Instruction::Done];
        let mut cpu = cpu_with(&boot);
        let himg: Vec<Word> = handler.iter().flat_map(|i| i.encode()).collect();
        cpu.load_image(20, &himg).unwrap();

        cpu.run_until_idle(100).unwrap();
        assert_eq!(cpu.state(), CoreState::Asleep);
        let before = cpu.stats();

        assert!(cpu.post_sensor_irq());
        assert!(matches!(
            cpu.step().unwrap(),
            StepOutcome::Woke {
                event: EventKind::SensorIrq
            }
        ));
        cpu.run_until_idle(100).unwrap();
        assert_eq!(cpu.regs().read(Reg::R5), 99);
        let d = cpu.stats().since(&before);
        assert_eq!(d.wakeups, 1);
        assert_eq!(d.handlers_dispatched, 1);
        assert_eq!(d.instructions, 2); // li + done
    }

    #[test]
    fn wakeup_latency_matches_model() {
        let mut cpu = cpu_with(&[Instruction::Done]);
        cpu.run_until_idle(10).unwrap();
        let t0 = cpu.now();
        cpu.post_sensor_irq();
        cpu.step().unwrap();
        let wake = cpu.now() - t0;
        assert!((wake.as_ns() - 2.5).abs() < 0.1, "wake {wake}");
    }

    #[test]
    fn timer_schedule_fire() {
        // Boot: handler table timer0 -> 30; schedule timer 0 for 50 ticks; done.
        let boot = [
            li(Reg::R1, 0), // timer number and event index are both 0
            li(Reg::R2, 30),
            Instruction::SetAddr {
                rev: Reg::R1,
                raddr: Reg::R2,
            },
            li(Reg::R3, 0),
            Instruction::SchedHi {
                rt: Reg::R1,
                rv: Reg::R3,
            },
            li(Reg::R4, 50),
            Instruction::SchedLo {
                rt: Reg::R1,
                rv: Reg::R4,
            },
            Instruction::Done,
        ];
        let handler = [li(Reg::R6, 7), Instruction::Halt];
        let mut cpu = cpu_with(&boot);
        let himg: Vec<Word> = handler.iter().flat_map(|i| i.encode()).collect();
        cpu.load_image(30, &himg).unwrap();
        cpu.run_to_halt(1000).unwrap();
        assert_eq!(cpu.regs().read(Reg::R6), 7);
        // The timer fired ~50 us after scheduling.
        assert!(cpu.now().as_us() >= 50.0, "{}", cpu.now());
        assert!(cpu.stats().sleep_time.as_us() > 40.0);
    }

    #[test]
    fn cancel_active_timer_posts_token() {
        let boot = [
            li(Reg::R1, 1),
            li(Reg::R2, 40),
            Instruction::SetAddr {
                rev: Reg::R1,
                raddr: Reg::R2,
            },
            li(Reg::R4, 10_000),
            Instruction::SchedLo {
                rt: Reg::R1,
                rv: Reg::R4,
            },
            Instruction::Cancel { rt: Reg::R1 },
            Instruction::Done,
        ];
        let handler = [li(Reg::R6, 0xCC), Instruction::Halt];
        let mut cpu = cpu_with(&boot);
        let himg: Vec<Word> = handler.iter().flat_map(|i| i.encode()).collect();
        cpu.load_image(40, &himg).unwrap();
        cpu.run_to_halt(1000).unwrap();
        // Cancellation token dispatched the handler without the 10 ms wait.
        assert_eq!(cpu.regs().read(Reg::R6), 0xCC);
        assert!(cpu.now().as_ms() < 1.0, "{}", cpu.now());
    }

    #[test]
    fn msg_port_write_produces_action() {
        let mut cpu = cpu_with(&[
            li(Reg::R15, MsgCommand::PortWrite(0x2a).encode()),
            Instruction::Halt,
        ]);
        let actions = cpu.run_to_halt(100).unwrap();
        assert_eq!(actions, vec![EnvAction::PortWrite(0x2a)]);
        assert_eq!(cpu.msg().port(), 0x2a);
    }

    #[test]
    fn radio_tx_sequence() {
        let mut cpu = cpu_with(&[
            li(Reg::R15, MsgCommand::RadioTx.encode()),
            li(Reg::R15, 0xbeef),
            Instruction::Halt,
        ]);
        let actions = cpu.run_to_halt(100).unwrap();
        assert_eq!(actions, vec![EnvAction::TxWord(0xbeef)]);
    }

    #[test]
    fn radio_rx_word_read_via_r15() {
        // Boot: rx on; handler for radio-rx at 40 reads r15 into r3.
        let boot = [
            li(Reg::R1, EventKind::RadioRx.index() as Word),
            li(Reg::R2, 40),
            Instruction::SetAddr {
                rev: Reg::R1,
                raddr: Reg::R2,
            },
            li(Reg::R15, MsgCommand::RadioRxOn.encode()),
            Instruction::Done,
        ];
        let handler = [
            Instruction::AluReg {
                op: AluOp::Mov,
                rd: Reg::R3,
                rs: Reg::R15,
            },
            Instruction::Halt,
        ];
        let mut cpu = cpu_with(&boot);
        let himg: Vec<Word> = handler.iter().flat_map(|i| i.encode()).collect();
        cpu.load_image(40, &himg).unwrap();
        cpu.run_until_idle(100).unwrap();
        assert!(cpu.post_radio_rx(0x7777));
        cpu.run_to_halt(100).unwrap();
        assert_eq!(cpu.regs().read(Reg::R3), 0x7777);
    }

    #[test]
    fn reading_empty_msg_port_is_an_error() {
        let mut cpu = cpu_with(&[Instruction::AluReg {
            op: AluOp::Mov,
            rd: Reg::R1,
            rs: Reg::R15,
        }]);
        let err = cpu.run_to_halt(10).unwrap_err();
        assert_eq!(err, StepError::MsgPortEmpty { at: 0 });
    }

    #[test]
    fn bad_msg_command_is_an_error() {
        let mut cpu = cpu_with(&[li(Reg::R15, 0x0001)]);
        let err = cpu.run_to_halt(10).unwrap_err();
        assert!(matches!(err, StepError::BadMsgCommand { word: 0x0001, .. }));
    }

    #[test]
    fn bad_timer_number_is_an_error() {
        let mut cpu = cpu_with(&[
            li(Reg::R1, 5),
            li(Reg::R2, 0),
            Instruction::SchedLo {
                rt: Reg::R1,
                rv: Reg::R2,
            },
        ]);
        let err = cpu.run_to_halt(10).unwrap_err();
        assert!(matches!(err, StepError::BadTimer { number: 5, .. }));
    }

    #[test]
    fn stuck_detector() {
        let mut cpu = cpu_with(&[Instruction::Done]);
        let err = cpu.run_to_halt(10).unwrap_err();
        assert!(matches!(err, StepError::Stuck { .. }));
    }

    #[test]
    fn step_limit() {
        // Infinite loop.
        let mut cpu = cpu_with(&[Instruction::Jmp { target: 0 }]);
        let err = cpu.run_to_halt(50).unwrap_err();
        assert_eq!(err, StepError::StepLimit { limit: 50 });
    }

    #[test]
    fn rand_and_seed_are_deterministic() {
        let prog = [
            li(Reg::R1, 0x1234),
            Instruction::Seed { rs: Reg::R1 },
            Instruction::Rand { rd: Reg::R2 },
            Instruction::Rand { rd: Reg::R3 },
            Instruction::Halt,
        ];
        let mut a = cpu_with(&prog);
        let mut b = cpu_with(&prog);
        a.run_to_halt(100).unwrap();
        b.run_to_halt(100).unwrap();
        assert_eq!(a.regs().read(Reg::R2), b.regs().read(Reg::R2));
        assert_eq!(a.regs().read(Reg::R3), b.regs().read(Reg::R3));
        assert_ne!(a.regs().read(Reg::R2), a.regs().read(Reg::R3));
    }

    #[test]
    fn bfs_sets_selected_field() {
        let mut cpu = cpu_with(&[
            li(Reg::R1, 0xaaaa),
            li(Reg::R2, 0x00ff),
            Instruction::Bfs {
                rd: Reg::R1,
                rs: Reg::R2,
                mask: 0x0f0f,
            },
            Instruction::Halt,
        ]);
        cpu.run_to_halt(100).unwrap();
        assert_eq!(
            cpu.regs().read(Reg::R1),
            (0xaaaa & !0x0f0f) | (0x00ff & 0x0f0f)
        );
    }

    #[test]
    fn swevent_posts_soft_event() {
        let boot = [
            li(Reg::R1, EventKind::Soft.index() as Word),
            li(Reg::R2, 40),
            Instruction::SetAddr {
                rev: Reg::R1,
                raddr: Reg::R2,
            },
            Instruction::SwEvent { rn: Reg::R1 },
            Instruction::Done,
        ];
        let handler = [li(Reg::R9, 1), Instruction::Halt];
        let mut cpu = cpu_with(&boot);
        let himg: Vec<Word> = handler.iter().flat_map(|i| i.encode()).collect();
        cpu.load_image(40, &himg).unwrap();
        cpu.run_to_halt(100).unwrap();
        assert_eq!(cpu.regs().read(Reg::R9), 1);
        // done found the soft token: the core never slept.
        assert_eq!(cpu.stats().wakeups, 0);
        assert_eq!(cpu.stats().handlers_dispatched, 1);
    }

    #[test]
    fn self_modifying_code_via_imem_store() {
        // Overwrite the instruction at `patch:` (initially li r5, 1 -> halt
        // after it) with the encoding of li r5, 2 before reaching it.
        // `li r5, 1` and `li r5, 2` share their first word; the patch
        // overwrites the immediate word of the instruction at words 6..8.
        let prog = [
            li(Reg::R1, 2), // 0..2: new immediate
            li(Reg::R3, 7), // 2..4: patch address
            Instruction::ImemStore {
                rs: Reg::R1,
                base: Reg::R3,
                offset: 0,
            }, // 4..6
            // patch site: words 6..8
            li(Reg::R5, 1),
            Instruction::Halt,
        ];
        let mut cpu = cpu_with(&prog);
        cpu.run_to_halt(100).unwrap();
        assert_eq!(cpu.regs().read(Reg::R5), 2);
    }

    #[test]
    fn energy_and_time_accumulate_per_instruction() {
        let mut cpu = cpu_with(&[li(Reg::R1, 1), Instruction::Halt]);
        cpu.run_to_halt(10).unwrap();
        let s = cpu.stats();
        assert_eq!(s.instructions, 2);
        assert!(s.energy.as_pj() > 0.0);
        assert!(!s.busy_time.is_zero());
        assert!(s.mips() > 50.0);
        assert!(s.energy_per_instruction().as_pj() > 50.0);
    }

    #[test]
    fn done_with_queued_token_dispatches_directly() {
        // Regression: `done` with a non-empty queue must jump to the
        // next handler, not fall through to the word after `done`.
        // The handler lives far from the boot code and the words in
        // between are left zeroed, so a fallthrough would be visible.
        let boot = [
            li(Reg::R1, EventKind::SensorIrq.index() as Word),
            li(Reg::R2, 200),
            Instruction::SetAddr {
                rev: Reg::R1,
                raddr: Reg::R2,
            },
            Instruction::Done,
        ];
        let handler = [
            Instruction::AluImm {
                op: AluImmOp::Addi,
                rd: Reg::R5,
                imm: 1,
            },
            Instruction::Done,
        ];
        let mut cpu = cpu_with(&boot);
        let himg: Vec<Word> = handler.iter().flat_map(|i| i.encode()).collect();
        cpu.load_image(200, &himg).unwrap();
        cpu.run_until_idle(100).unwrap();
        // Queue three events while asleep; the core must chain through
        // all three handlers without sleeping in between.
        for _ in 0..3 {
            cpu.post_sensor_irq();
        }
        let before = cpu.stats();
        cpu.run_until_idle(100).unwrap();
        let d = cpu.stats().since(&before);
        assert_eq!(cpu.regs().read(Reg::R5), 3);
        assert_eq!(d.handlers_dispatched, 3);
        assert_eq!(d.wakeups, 1, "only the first dispatch is a wake-up");
        assert_eq!(d.instructions, 6, "exactly 2 instructions per handler");
    }

    #[test]
    fn profile_attributes_instructions_per_handler() {
        // Boot (4 instructions) + two different handlers.
        let boot = [
            li(Reg::R1, EventKind::SensorIrq.index() as Word),
            li(Reg::R2, 100),
            Instruction::SetAddr {
                rev: Reg::R1,
                raddr: Reg::R2,
            },
            Instruction::Done,
        ];
        let irq_handler = [li(Reg::R5, 1), li(Reg::R6, 2), Instruction::Done]; // 3 ins
        let mut cpu = cpu_with(&boot);
        let img: Vec<Word> = irq_handler.iter().flat_map(|i| i.encode()).collect();
        cpu.load_image(100, &img).unwrap();
        cpu.run_until_idle(100).unwrap();

        cpu.post_sensor_irq();
        cpu.run_until_idle(100).unwrap();
        cpu.post_sensor_irq();
        cpu.run_until_idle(100).unwrap();

        let profile = cpu.profile();
        assert_eq!(profile.boot().instructions, 4);
        let irq = profile.event(EventKind::SensorIrq);
        assert_eq!(irq.dispatches, 2);
        assert_eq!(irq.instructions, 6);
        assert!((irq.instructions_per_dispatch() - 3.0).abs() < 1e-9);
        assert!(irq.energy.as_pj() > 0.0);
        assert_eq!(profile.event(EventKind::RadioRx).dispatches, 0);
        // Conservation: profile buckets sum to the core's total.
        assert_eq!(profile.total_instructions(), cpu.stats().instructions);
    }

    #[test]
    fn sampling_records_per_dispatch_and_changes_nothing() {
        // Two identical cores, one with sampling; execution must be
        // bit-identical, and the sampled core must record one sample
        // per dispatched handler with exact deltas.
        let boot = [
            li(Reg::R1, EventKind::SensorIrq.index() as Word),
            li(Reg::R2, 200),
            Instruction::SetAddr {
                rev: Reg::R1,
                raddr: Reg::R2,
            },
            Instruction::Done,
        ];
        let handler = [li(Reg::R5, 1), li(Reg::R6, 2), Instruction::Done]; // 3 ins
        let build = |sampling: bool| {
            let mut cpu = cpu_with(&boot);
            if sampling {
                cpu.enable_sampling(64);
            }
            let img: Vec<Word> = handler.iter().flat_map(|i| i.encode()).collect();
            cpu.load_image(200, &img).unwrap();
            cpu.run_until_idle(100).unwrap();
            // One wake-up dispatch, then two chained dispatches.
            cpu.post_sensor_irq();
            cpu.run_until_idle(100).unwrap();
            let t = cpu.now();
            cpu.advance_idle(t + SimDuration::from_us(3));
            cpu.post_sensor_irq();
            cpu.post_sensor_irq();
            cpu.run_until_idle(100).unwrap();
            cpu
        };
        let with = build(true);
        let without = build(false);
        assert_eq!(with.stats(), without.stats());
        assert_eq!(with.now(), without.now());

        let sampler = with.sampler().expect("sampling enabled");
        assert_eq!(sampler.samples().len(), 3);
        assert_eq!(sampler.truncated(), 0);
        let total: u64 = sampler.samples().iter().map(|s| s.instructions).sum();
        assert_eq!(
            total,
            with.profile().event(EventKind::SensorIrq).instructions
        );
        for s in sampler.samples() {
            assert_eq!(s.event, EventKind::SensorIrq);
            assert_eq!(s.instructions, 3);
            assert!(s.energy.as_pj() > 0.0);
            assert!(s.end > s.start);
        }
        // First dispatch came through a wake-up: its wait is exactly
        // the wake latency. The chained second and third dispatches
        // waited in the queue while the earlier handlers ran.
        let wake = with.acct().timing_model().wakeup_latency();
        assert_eq!(sampler.samples()[0].queue_wait, wake);
        assert!(sampler.samples()[2].queue_wait > sampler.samples()[1].queue_wait);
    }

    #[test]
    fn sampler_capacity_truncates() {
        let boot = [
            li(Reg::R1, EventKind::SensorIrq.index() as Word),
            li(Reg::R2, 200),
            Instruction::SetAddr {
                rev: Reg::R1,
                raddr: Reg::R2,
            },
            Instruction::Done,
        ];
        let handler = [Instruction::Done];
        let mut cpu = cpu_with(&boot);
        cpu.enable_sampling(2);
        let img: Vec<Word> = handler.iter().flat_map(|i| i.encode()).collect();
        cpu.load_image(200, &img).unwrap();
        cpu.run_until_idle(100).unwrap();
        for _ in 0..5 {
            cpu.post_sensor_irq();
            cpu.run_until_idle(100).unwrap();
        }
        let sampler = cpu.sampler().unwrap();
        assert_eq!(sampler.samples().len(), 2);
        assert_eq!(sampler.truncated(), 3);
    }

    #[test]
    fn event_queue_overflow_drops() {
        let mut cpu = Processor::new(CoreConfig::default());
        cpu.load_program(&[Instruction::Done]).unwrap();
        cpu.run_until_idle(10).unwrap();
        for _ in 0..EVENT_QUEUE_DEPTH {
            assert!(cpu.post_sensor_irq());
        }
        assert!(!cpu.post_sensor_irq());
        assert_eq!(cpu.stats().events_dropped, 1);
        assert_eq!(cpu.stats().events_inserted, EVENT_QUEUE_DEPTH as u64);
    }
}
