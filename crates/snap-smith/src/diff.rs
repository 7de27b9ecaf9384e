//! The differential driver: one program, one deterministic environment
//! script, many implementations — all observations must be bit-equal.
//!
//! The same scripted environment drives the naive oracle and
//! `snap-core`'s `Processor` single-stepped and under `run_burst` in
//! every translation tier. The environment is a pure
//! function of execution: stimuli fire at fixed executed-instruction
//! counts, transmitted words complete immediately, sensor queries are
//! answered with a hash of the sensor id. Because every implementation
//! executes the same instruction sequence, the script unfolds
//! identically — any observable difference (registers, memories, event
//! order, traces, energy *bits*) is a conformance bug.

use crate::gen::{Script, StimulusKind};
use crate::oracle::{Oracle, OracleAction, OracleOutcome, OracleState};
use dess::{Lfsr16, SimTime};
use snap_asm::Program;
use snap_core::{CoreConfig, CoreState, Engine, EnvAction, Processor, StepOutcome};
use snap_isa::{EventKind, Instruction, Reg};

/// Which implementation/configuration to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Runner {
    /// The naive reference interpreter.
    Oracle,
    /// `snap_core::Processor` via `step()` (`step` always interprets,
    /// whatever the engine).
    CoreStep,
    /// `snap_core::Processor` via `run_burst()` under one translation tier.
    CoreBurst {
        /// Translation tier under test.
        engine: Engine,
    },
}

impl Runner {
    /// All core configurations the oracle is diffed against: the
    /// stepped interpreter and every batched tier.
    pub const CORE_CONFIGS: [Runner; 3] = [
        Runner::CoreStep,
        Runner::CoreBurst {
            engine: Engine::Interp,
        },
        Runner::CoreBurst {
            engine: Engine::Fused,
        },
    ];

    /// Short human-readable label.
    pub fn label(&self) -> String {
        match self {
            Runner::Oracle => "oracle".into(),
            Runner::CoreStep => "core-step".into(),
            Runner::CoreBurst { engine } => {
                let engine = match engine {
                    Engine::Interp => "interp",
                    Engine::Fused => "fused",
                    Engine::Aot => "aot",
                };
                format!("core-burst/engine={engine}")
            }
        }
    }
}

/// Everything observable about a finished run, in bit-comparable form.
#[derive(Debug, Clone, PartialEq)]
pub struct Observed {
    /// Architectural registers `r0`–`r14`.
    pub regs: [u16; 15],
    /// Carry flag.
    pub carry: bool,
    /// Final program counter.
    pub pc: u16,
    /// Final activity state (0 running, 1 asleep, 2 halted).
    pub state: u8,
    /// Data memory contents.
    pub dmem: Vec<u16>,
    /// Instruction memory contents (after any self-modification).
    pub imem: Vec<u16>,
    /// Dynamic instructions executed.
    pub instructions: u64,
    /// Occupancy cycles.
    pub cycles: u64,
    /// Total energy, as raw `f64` bits.
    pub energy_bits: u64,
    /// Busy time in picoseconds.
    pub busy_ps: u64,
    /// Sleep time in picoseconds.
    pub sleep_ps: u64,
    /// Final simulated time in picoseconds.
    pub now_ps: u64,
    /// Idle→active transitions.
    pub wakeups: u64,
    /// Handlers dispatched.
    pub handlers: u64,
    /// Dispatches per event-table index.
    pub dispatches: [u64; 8],
    /// Event tokens enqueued.
    pub events_inserted: u64,
    /// Event tokens dropped at a full queue.
    pub events_dropped: u64,
    /// Event kinds still queued at the end, head first.
    pub queue: Vec<EventKind>,
    /// Timer counters: scheduled, expired, cancelled.
    pub timers: (u64, u64, u64),
    /// Message counters: words transmitted, words received.
    pub msg_words: (u64, u64),
    /// Outgoing-FIFO depth at the end.
    pub fifo_len: usize,
    /// Last output-port value.
    pub port: u16,
    /// Every environment action, in order.
    pub actions: Vec<OracleAction>,
}

/// One finished run: the observation plus (for stepping runners) the
/// full executed-instruction trace.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// The comparable observation.
    pub observed: Observed,
    /// `(address, instruction)` per executed instruction; `None` for
    /// burst runners (the batched path exposes no per-instruction
    /// outcome — that asymmetry is part of what the diff covers).
    pub trace: Option<Vec<(u16, Instruction)>>,
}

/// A run either finishes with an observation or fails with an error
/// string; errors must match across implementations too.
pub type RunResult = Result<RunOutput, String>;

/// Deterministic sensor reading for a query of `id`.
pub fn sensor_reply_value(id: u16) -> u16 {
    id.wrapping_mul(0x9E37) ^ 0x55AA
}

fn convert(action: EnvAction) -> OracleAction {
    match action {
        EnvAction::TxWord(w) => OracleAction::TxWord(w),
        EnvAction::RadioMode(b) => OracleAction::RadioMode(b),
        EnvAction::Query(id) => OracleAction::Query(id),
        EnvAction::PortWrite(v) => OracleAction::PortWrite(v),
    }
}

/// The driver's view of a machine under test.
pub(crate) trait Target {
    fn is_halted(&self) -> bool;
    fn is_asleep(&self) -> bool;
    /// While asleep: attempt to wake; `true` when a handler was
    /// dispatched.
    fn wake(&mut self) -> Result<bool, String>;
    fn next_timer_expiry(&self) -> Option<SimTime>;
    fn advance_idle(&mut self, to: SimTime);
    fn post_irq(&mut self);
    fn post_rx(&mut self, word: u16);
    fn post_tx_done(&mut self);
    fn post_sensor_reply(&mut self, word: u16);
    /// While running: execute up to `budget` instructions; stops early
    /// at an environment action or when leaving the running state.
    fn run_chunk(
        &mut self,
        budget: u64,
        trace: &mut Option<Vec<(u16, Instruction)>>,
    ) -> Result<(u64, Option<OracleAction>), String>;
}

impl Target for Oracle {
    fn is_halted(&self) -> bool {
        self.state() == OracleState::Halted
    }
    fn is_asleep(&self) -> bool {
        self.state() == OracleState::Asleep
    }
    fn wake(&mut self) -> Result<bool, String> {
        Ok(matches!(self.step()?, OracleOutcome::Woke { .. }))
    }
    fn next_timer_expiry(&self) -> Option<SimTime> {
        Oracle::next_timer_expiry(self)
    }
    fn advance_idle(&mut self, to: SimTime) {
        Oracle::advance_idle(self, to);
    }
    fn post_irq(&mut self) {
        self.post_sensor_irq();
    }
    fn post_rx(&mut self, word: u16) {
        self.post_radio_rx(word);
    }
    fn post_tx_done(&mut self) {
        self.post_radio_tx_done();
    }
    fn post_sensor_reply(&mut self, word: u16) {
        Oracle::post_sensor_reply(self, word);
    }
    fn run_chunk(
        &mut self,
        budget: u64,
        trace: &mut Option<Vec<(u16, Instruction)>>,
    ) -> Result<(u64, Option<OracleAction>), String> {
        let mut steps = 0;
        while steps < budget && self.state() == OracleState::Running {
            match self.step()? {
                OracleOutcome::Executed { action, ins, at } => {
                    steps += 1;
                    if let Some(t) = trace {
                        t.push((at, ins));
                    }
                    if let Some(a) = action {
                        return Ok((steps, Some(a)));
                    }
                }
                _ => break,
            }
        }
        Ok((steps, None))
    }
}

/// A `snap_core::Processor` under one core configuration.
pub(crate) struct CoreTarget {
    pub(crate) cpu: Processor,
    burst: bool,
}

impl CoreTarget {
    /// The core `runner` names with `program` loaded.
    pub(crate) fn load(runner: Runner, program: &Program) -> Result<CoreTarget, String> {
        let engine = match runner {
            Runner::CoreBurst { engine } => engine,
            _ => Engine::default(),
        };
        let mut cpu = Processor::new(CoreConfig {
            engine,
            ..CoreConfig::default()
        });
        cpu.load_image(0, &program.imem_image())
            .map_err(|e| e.to_string())?;
        cpu.load_data(0, &program.dmem_image())
            .map_err(|e| e.to_string())?;
        CoreTarget::with_cpu(runner, cpu)
    }

    /// `cpu` rebuilt from its own snapshot under `runner`, so every
    /// resume exercises restore.
    pub(crate) fn restore(runner: Runner, cpu: &Processor) -> Result<CoreTarget, String> {
        let cpu = Processor::from_snapshot(&cpu.export_snapshot()).map_err(|e| e.to_string())?;
        CoreTarget::with_cpu(runner, cpu)
    }

    /// Wrap `cpu` for `runner`.
    fn with_cpu(runner: Runner, cpu: Processor) -> Result<CoreTarget, String> {
        let burst = match runner {
            Runner::Oracle => {
                return Err("the oracle is not a core configuration: it cannot checkpoint".into());
            }
            Runner::CoreStep => false,
            Runner::CoreBurst { .. } => true,
        };
        Ok(CoreTarget { cpu, burst })
    }
}

impl Target for CoreTarget {
    fn is_halted(&self) -> bool {
        self.cpu.state() == CoreState::Halted
    }
    fn is_asleep(&self) -> bool {
        self.cpu.state() == CoreState::Asleep
    }
    fn wake(&mut self) -> Result<bool, String> {
        let outcome = self.cpu.step().map_err(|e| e.to_string())?;
        Ok(matches!(outcome, StepOutcome::Woke { .. }))
    }
    fn next_timer_expiry(&self) -> Option<SimTime> {
        self.cpu.next_timer_expiry()
    }
    fn advance_idle(&mut self, to: SimTime) {
        self.cpu.advance_idle(to);
    }
    fn post_irq(&mut self) {
        self.cpu.post_sensor_irq();
    }
    fn post_rx(&mut self, word: u16) {
        self.cpu.post_radio_rx(word);
    }
    fn post_tx_done(&mut self) {
        self.cpu.post_radio_tx_done();
    }
    fn post_sensor_reply(&mut self, word: u16) {
        self.cpu.post_sensor_reply(word);
    }
    fn run_chunk(
        &mut self,
        budget: u64,
        trace: &mut Option<Vec<(u16, Instruction)>>,
    ) -> Result<(u64, Option<OracleAction>), String> {
        if self.burst {
            let burst = self
                .cpu
                .run_burst(SimTime::from_ps(u64::MAX), budget)
                .map_err(|e| e.to_string())?;
            return Ok((burst.steps, burst.action.map(convert)));
        }
        let mut steps = 0;
        while steps < budget && self.cpu.state() == CoreState::Running {
            match self.cpu.step().map_err(|e| e.to_string())? {
                StepOutcome::Executed { action, ins, at } => {
                    steps += 1;
                    if let Some(t) = trace {
                        t.push((at, ins));
                    }
                    if let Some(a) = action {
                        return Ok((steps, Some(convert(a))));
                    }
                }
                _ => break,
            }
        }
        Ok((steps, None))
    }
}

/// A resumable run of one target through a script. Stimuli are
/// injected at their executed-instruction counts, transmitted words
/// complete at once, sensor queries are answered with
/// [`sensor_reply_value`], and sleeps fast-forward to the next timer
/// expiry. Chunk boundaries never change observable state (every tier
/// executes the identical instruction sequence), so a run stopped and
/// resumed at any count matches a straight run.
pub(crate) struct Cursor<'s, T> {
    pub(crate) target: T,
    script: &'s Script,
    /// Instructions executed so far.
    pub(crate) executed: u64,
    /// Index of the next stimulus to inject.
    pub(crate) idx: usize,
    /// Every environment action, in order.
    actions: Vec<OracleAction>,
    /// `(address, instruction)` per executed instruction, when wanted.
    trace: Option<Vec<(u16, Instruction)>>,
}

impl<'s, T: Target> Cursor<'s, T> {
    /// A run of `target` from the start of `script`.
    pub(crate) fn new(target: T, script: &'s Script) -> Cursor<'s, T> {
        Cursor {
            target,
            script,
            executed: 0,
            idx: 0,
            actions: Vec::new(),
            trace: None,
        }
    }

    fn inject_next(&mut self) {
        match self.script.stimuli[self.idx].kind {
            StimulusKind::SensorIrq => self.target.post_irq(),
            StimulusKind::RadioRx(w) => self.target.post_rx(w),
        }
        self.idx += 1;
    }

    /// Drive to the post-injection state at exactly `target` executed
    /// instructions; a full run is `advance_to(u64::MAX)`. `Ok(true)`
    /// means the target was reached; `Ok(false)` means the run ended
    /// first (halt, instruction budget, or asleep with nothing left to
    /// wake it).
    pub(crate) fn advance_to(&mut self, target: u64) -> Result<bool, String> {
        let script = self.script;
        let stimuli = &script.stimuli;
        loop {
            while self.idx < stimuli.len() && stimuli[self.idx].at <= self.executed {
                self.inject_next();
            }
            if self.executed >= target {
                return Ok(true);
            }
            if self.executed >= script.max_instructions || self.target.is_halted() {
                return Ok(false);
            }
            if self.target.is_asleep() {
                if self.target.wake()? {
                    continue;
                }
                if let Some(exp) = self.target.next_timer_expiry() {
                    self.target.advance_idle(exp);
                    continue;
                }
                if self.idx < stimuli.len() {
                    self.inject_next();
                    continue;
                }
                return Ok(false);
            }
            let next_at = stimuli
                .get(self.idx)
                .map_or(u64::MAX, |s| s.at)
                .min(script.max_instructions)
                .min(target);
            let (steps, action) = self
                .target
                .run_chunk(next_at - self.executed, &mut self.trace)?;
            self.executed += steps;
            if let Some(a) = action {
                self.actions.push(a);
                match a {
                    OracleAction::TxWord(_) => self.target.post_tx_done(),
                    OracleAction::Query(id) => {
                        self.target.post_sensor_reply(sensor_reply_value(id));
                    }
                    OracleAction::RadioMode(_) | OracleAction::PortWrite(_) => {}
                }
            } else if steps == 0 && !self.target.is_asleep() && !self.target.is_halted() {
                return Err("script run stalled: running target made no progress".into());
            }
        }
    }
}

/// Assemble-and-run is split so callers with an existing [`Program`]
/// (e.g. golden-trace tests over `snap-apps`) can reuse the driver.
pub fn run_program(program: &Program, script: &Script, runner: Runner) -> RunResult {
    if runner == Runner::Oracle {
        let mut o = Oracle::new(Lfsr16::default().state());
        o.load_image(0, &program.imem_image());
        o.load_data(0, &program.dmem_image());
        let mut run = Cursor::new(o, script);
        run.trace = Some(Vec::new());
        run.advance_to(u64::MAX)?;
        return Ok(RunOutput {
            observed: observe_oracle(&run.target, run.actions),
            trace: run.trace,
        });
    }
    let target = CoreTarget::load(runner, program)?;
    let mut run = Cursor::new(target, script);
    if !run.target.burst {
        run.trace = Some(Vec::new());
    }
    run.advance_to(u64::MAX)?;
    Ok(RunOutput {
        observed: observe_core(&run.target.cpu, run.actions),
        trace: run.trace,
    })
}

/// Run the program on a sampling stepped `Processor` through the
/// script, returning the finished cpu (for its per-dispatch handler
/// samples) and the executed-instruction trace. This is the dynamic
/// side of the `snap-lint` soundness cross-check (see
/// [`crate::soundness`]): the trace checks static reachability, the
/// samples check termination verdicts and worst-case bounds.
pub fn run_core_sampled(
    program: &Program,
    script: &Script,
    retain: usize,
) -> Result<(Processor, Vec<(u16, Instruction)>), String> {
    let mut target = CoreTarget::load(Runner::CoreStep, program)?;
    target.cpu.enable_sampling(retain);
    let mut run = Cursor::new(target, script);
    run.trace = Some(Vec::new());
    run.advance_to(u64::MAX)?;
    Ok((run.target.cpu, run.trace.unwrap_or_default()))
}

fn observe_oracle(o: &Oracle, actions: Vec<OracleAction>) -> Observed {
    let (inserted, dropped) = o.queue_counts();
    Observed {
        regs: *o.regs(),
        carry: o.carry(),
        pc: o.pc(),
        state: match o.state() {
            OracleState::Running => 0,
            OracleState::Asleep => 1,
            OracleState::Halted => 2,
        },
        dmem: o.dmem().to_vec(),
        imem: o.imem().to_vec(),
        instructions: o.instructions(),
        cycles: o.cycles(),
        energy_bits: o.total_energy().as_pj().to_bits(),
        busy_ps: o.busy_time().as_ps(),
        sleep_ps: o.sleep_time().as_ps(),
        now_ps: o.now().as_ps(),
        wakeups: o.wakeups(),
        handlers: o.handlers_dispatched(),
        dispatches: *o.dispatches(),
        events_inserted: inserted,
        events_dropped: dropped,
        queue: o.queue_contents(),
        timers: o.timer_counts(),
        msg_words: o.msg_counts(),
        fifo_len: o.fifo_len(),
        port: o.port(),
        actions,
    }
}

fn observe_core(cpu: &Processor, actions: Vec<OracleAction>) -> Observed {
    let stats = cpu.stats();
    let mut regs = [0u16; 15];
    for (i, slot) in regs.iter_mut().enumerate() {
        *slot = cpu.regs().read(Reg::ALL[i]);
    }
    let mut dispatches = [0u64; 8];
    for (i, slot) in dispatches.iter_mut().enumerate() {
        *slot = cpu.profile().event(EventKind::ALL[i]).dispatches;
    }
    let mut queue = Vec::new();
    let mut q = cpu.event_queue().clone();
    while let Some(token) = q.pop() {
        queue.push(token.kind());
    }
    Observed {
        regs,
        carry: cpu.regs().carry(),
        pc: cpu.pc(),
        state: match cpu.state() {
            CoreState::Running => 0,
            CoreState::Asleep => 1,
            CoreState::Halted => 2,
        },
        dmem: cpu.dmem().to_vec(),
        imem: cpu.imem().to_vec(),
        instructions: stats.instructions,
        cycles: stats.cycles,
        energy_bits: stats.energy.as_pj().to_bits(),
        busy_ps: stats.busy_time.as_ps(),
        sleep_ps: stats.sleep_time.as_ps(),
        now_ps: stats.now.as_ps(),
        wakeups: stats.wakeups,
        handlers: stats.handlers_dispatched,
        dispatches,
        events_inserted: stats.events_inserted,
        events_dropped: stats.events_dropped,
        queue,
        timers: (
            cpu.timers().scheduled(),
            cpu.timers().expired(),
            cpu.timers().cancelled(),
        ),
        msg_words: (cpu.msg().words_transmitted(), cpu.msg().words_received()),
        fifo_len: cpu.msg().outgoing_len(),
        port: cpu.msg().port(),
        actions,
    }
}

/// Compare two run results; `None` when they agree, else a description
/// of the first difference found.
pub fn compare(reference: &RunResult, got: &RunResult) -> Option<String> {
    match (reference, got) {
        (Err(a), Err(b)) => {
            if a == b {
                None
            } else {
                Some(format!(
                    "error mismatch:\n  reference: {a}\n  got:       {b}"
                ))
            }
        }
        (Err(a), Ok(_)) => Some(format!("reference failed ({a}) but run succeeded")),
        (Ok(_), Err(b)) => Some(format!("reference succeeded but run failed ({b})")),
        (Ok(a), Ok(b)) => compare_outputs(a, b),
    }
}

fn compare_outputs(a: &RunOutput, b: &RunOutput) -> Option<String> {
    macro_rules! field {
        ($name:ident) => {
            if a.observed.$name != b.observed.$name {
                return Some(format!(
                    "{} mismatch:\n  reference: {:?}\n  got:       {:?}",
                    stringify!($name),
                    a.observed.$name,
                    b.observed.$name
                ));
            }
        };
    }
    field!(instructions);
    field!(regs);
    field!(carry);
    field!(pc);
    field!(state);
    field!(cycles);
    field!(energy_bits);
    field!(busy_ps);
    field!(sleep_ps);
    field!(now_ps);
    field!(wakeups);
    field!(handlers);
    field!(dispatches);
    field!(events_inserted);
    field!(events_dropped);
    field!(queue);
    field!(timers);
    field!(msg_words);
    field!(fifo_len);
    field!(port);
    field!(actions);
    if let Some(i) = first_mem_diff(&a.observed.dmem, &b.observed.dmem) {
        return Some(format!(
            "dmem[{i:#05x}] mismatch: reference {:#06x}, got {:#06x}",
            a.observed.dmem[i], b.observed.dmem[i]
        ));
    }
    if let Some(i) = first_mem_diff(&a.observed.imem, &b.observed.imem) {
        return Some(format!(
            "imem[{i:#05x}] mismatch: reference {:#06x}, got {:#06x}",
            a.observed.imem[i], b.observed.imem[i]
        ));
    }
    if let (Some(ta), Some(tb)) = (&a.trace, &b.trace) {
        if ta != tb {
            let i = ta
                .iter()
                .zip(tb.iter())
                .position(|(x, y)| x != y)
                .unwrap_or(ta.len().min(tb.len()));
            return Some(format!(
                "trace mismatch at instruction {i}:\n  reference: {:?}\n  got:       {:?}",
                ta.get(i),
                tb.get(i)
            ));
        }
    }
    None
}

fn first_mem_diff(a: &[u16], b: &[u16]) -> Option<usize> {
    a.iter().zip(b.iter()).position(|(x, y)| x != y)
}

/// A divergence between the oracle and one core configuration.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Label of the diverging configuration.
    pub config: String,
    /// First differing field, with both values.
    pub detail: String,
}

/// Run `program` under the oracle and every core configuration in
/// [`Runner::CORE_CONFIGS`];
/// `None` when everything is bit-identical.
pub fn check_program(program: &Program, script: &Script) -> Option<Divergence> {
    let reference = run_program(program, script, Runner::Oracle);
    for runner in Runner::CORE_CONFIGS {
        let got = run_program(program, script, runner);
        if let Some(detail) = compare(&reference, &got) {
            return Some(Divergence {
                config: runner.label(),
                detail,
            });
        }
    }
    None
}

/// Assemble `source` and [`check_program`] it. Assembly failure is
/// reported as a divergence of the `assembler` stage.
pub fn check_source(source: &str, script: &Script) -> Option<Divergence> {
    match snap_asm::assemble(source) {
        Ok(program) => check_program(&program, script),
        Err(e) => Some(Divergence {
            config: "assembler".into(),
            detail: e.to_string(),
        }),
    }
}
