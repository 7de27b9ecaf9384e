//! Static handler analysis for SNAP programs.
//!
//! `snap-lint` decodes an assembled IMEM image into per-handler
//! control-flow graphs rooted at the event-handler table (recovered from
//! the boot code's `setaddr` instructions), then proves or refutes
//! `done`-termination, computes worst-case dynamic-instruction and
//! energy bounds per handler against the paper's 70–245-instruction /
//! 1.6–5.8 nJ handler band, and reports hazard lints (self-modifying
//! `isw` into live code, `swev` queue-overflow risk, `r15` FIFO misuse,
//! dead stores, unreachable code, ...). See `docs/LINTING.md` for the
//! catalogue.
//!
//! The analysis is a whole-program abstract interpretation over
//! constant/unknown register values with context-sensitive call
//! summaries; loop bounds come from the decrementing-counter idiom the
//! paper's handlers (and our apps) use. Soundness of the three verdicts
//! that matter — reachability, termination, bounds — is continuously
//! cross-checked against real executions by `snap-smith --soundness`.

mod absint;
mod analyzer;
mod flow;
mod lints;
mod loops;
mod report;

pub use report::{render_json, render_text};

use snap_energy::OperatingPoint;
use snap_isa::{Addr, EventKind};
use std::collections::BTreeSet;

/// Diagnostic severity. `Error` gates CI (`xtask lint-asm`); `Warning`
/// gates only under `--strict`; `Info` is never gating.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory only.
    Info,
    /// Suspicious but possibly intended.
    Warning,
    /// Will (or is overwhelmingly likely to) fault or wedge at runtime.
    Error,
}

impl Severity {
    /// Lowercase label used in text and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One finding, attributed to an IMEM word address when possible.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Stable lint id (kebab-case, e.g. `no-done-path`).
    pub lint: &'static str,
    /// How bad it is.
    pub severity: Severity,
    /// IMEM word address of the offending instruction, if any.
    pub pc: Option<Addr>,
    /// Source location, when the input carried a line table.
    pub line: Option<(String, usize)>,
    /// Handler the finding was discovered under (event name, `boot`,
    /// or `None` for whole-program findings).
    pub handler: Option<String>,
    /// What is wrong.
    pub message: String,
    /// How to fix it.
    pub hint: String,
}

/// Termination verdict for one handler (or boot).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Termination {
    /// Every path from entry reaches `done` (or `halt`) in a bounded
    /// number of instructions.
    Proved,
    /// The analysis could not decide (unrecognized loop, indirect jump,
    /// recursion, ...).
    Unknown,
    /// No path from entry reaches `done` at all: the handler can never
    /// complete and wedges the node.
    Never,
}

impl Termination {
    /// Lowercase label used in text and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            Termination::Proved => "proved",
            Termination::Unknown => "unknown",
            Termination::Never => "never",
        }
    }
}

/// Worst-case cost of one complete handler activation (entry through
/// its `done`, inclusive).
#[derive(Debug, Clone, Copy)]
pub struct Bound {
    /// Dynamic instruction count.
    pub instructions: u64,
    /// Energy at the analysis operating point, in pJ.
    pub energy_pj: f64,
}

/// Where a bound sits relative to the paper's measured 70–245
/// dynamic-instruction handler band (Fig. 7 of the SNAP/LE paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PaperBand {
    /// Cheaper than the smallest measured handler.
    Below,
    /// Inside the measured band.
    Within,
    /// Costlier than the largest measured handler — worth a look.
    Above,
}

/// The paper's handler band: 70–245 dynamic instructions.
pub const PAPER_BAND_INSTRUCTIONS: (u64, u64) = (70, 245);
/// The paper's handler band: 1.6–5.8 nJ per handler at 0.6 V.
pub const PAPER_BAND_NJ: (f64, f64) = (1.6, 5.8);

impl PaperBand {
    /// Classify an instruction count against the paper band.
    pub fn of(instructions: u64) -> PaperBand {
        if instructions < PAPER_BAND_INSTRUCTIONS.0 {
            PaperBand::Below
        } else if instructions <= PAPER_BAND_INSTRUCTIONS.1 {
            PaperBand::Within
        } else {
            PaperBand::Above
        }
    }

    /// Lowercase label used in text and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            PaperBand::Below => "below",
            PaperBand::Within => "within",
            PaperBand::Above => "above",
        }
    }
}

/// Per-handler analysis result.
#[derive(Debug, Clone)]
pub struct HandlerReport {
    /// The event this entry serves (`None` for boot).
    pub event: Option<EventKind>,
    /// Entry word address, when installed. Boot is always entry 0.
    pub entry: Option<Addr>,
    /// Symbol naming the entry, when the symbol table has one.
    pub symbol: Option<String>,
    /// Termination verdict.
    pub terminates: Termination,
    /// Worst-case activation cost, when bounded.
    pub bound: Option<Bound>,
    /// True when the bound used a 65536-iteration fallback trip count
    /// (counter loop with unknown initial value).
    pub loose: bool,
    /// Where the bound sits against the paper's handler band.
    pub paper_band: Option<PaperBand>,
}

/// One done-terminating code region: the root entry plus every
/// instruction-start address the termination proof covered. Only
/// regions whose root verdict is [`Termination::Proved`] — and only
/// when the whole-program analysis is not degraded — are exported, so
/// a consumer may rely on them without re-checking the proof.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProvenRegion {
    /// The dispatching event (`None` for the boot path).
    pub event: Option<EventKind>,
    /// Root entry address of the proof.
    pub entry: Addr,
    /// Every instruction-start address in the proven CFG, ascending.
    pub addrs: Vec<Addr>,
}

/// How one handler (or boot) causes another event to be raised — one
/// edge kind per mechanism the hardware funnels into the event queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FlowEdgeKind {
    /// `swev` posts the target event directly.
    Swev,
    /// `schedlo` arms a timer; its expiry raises the timer event later.
    TimerArm,
    /// `cancel` of an active timer raises the timer event immediately
    /// (the paper's always-token rule).
    TimerCancel,
    /// A `RadioTx` message command; completion raises `RadioTxDone`.
    RadioTx,
    /// A `QuerySensor` message command; the reading raises
    /// `SensorReply`.
    SensorQuery,
    /// A `RadioRxOn` message command; incoming words raise `RadioRx`.
    RadioRxEnable,
}

impl FlowEdgeKind {
    /// Lowercase label used in text and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            FlowEdgeKind::Swev => "swev",
            FlowEdgeKind::TimerArm => "timer-arm",
            FlowEdgeKind::TimerCancel => "timer-cancel",
            FlowEdgeKind::RadioTx => "radio-tx",
            FlowEdgeKind::SensorQuery => "sensor-query",
            FlowEdgeKind::RadioRxEnable => "radio-rx-enable",
        }
    }
}

/// One edge of the whole-image event-flow graph.
#[derive(Debug, Clone)]
pub struct FlowEdge {
    /// Source: the event whose handler raises `to` (`None` for boot).
    pub from: Option<EventKind>,
    /// The event raised.
    pub to: EventKind,
    /// The raising mechanism.
    pub kind: FlowEdgeKind,
    /// Worst-case raises per activation, when the path-cost analysis
    /// bounded it (`swev` edges only; arm/command edges are
    /// existence-level).
    pub count: Option<u64>,
}

/// Statically proven properties of one activation chain: the burst of
/// dispatches a single wake event can trigger through `swev` posts
/// alone, explored under adversarial dispatch order (any pending event
/// may be dispatched next — a superset of the hardware's FIFO).
#[derive(Debug, Clone)]
pub struct ChainReport {
    /// The wake event the chain starts from (`None` for the boot
    /// chain: the events boot itself posts before first sleeping).
    pub event: Option<EventKind>,
    /// Worst-case simultaneous pending events at any point in the
    /// chain. `None` when the chain reaches a handler with unknown
    /// posts, an uninstalled event, or overflows.
    pub peak_queue: Option<u64>,
    /// The chain alone (zero external load) can exceed the queue
    /// capacity: posts are dropped.
    pub overflow: bool,
    /// Worst-case dispatches per wake, including the root dispatch.
    /// `None` when unbounded (a post cycle) or unknown.
    pub events_per_wake: Option<u64>,
    /// Worst-case chain energy per wake in pJ (sum of per-handler
    /// worst-case activation energies along the worst chain).
    pub energy_pj_per_wake: Option<f64>,
    /// Worst-case `swev` posts by any single dispatch in the chain.
    pub max_swev_posts: Option<u64>,
}

/// The whole-image event-flow analysis: graph plus per-chain proofs.
#[derive(Debug, Clone, Default)]
pub struct FlowReport {
    /// True when whole-image flow claims are untrustworthy (the base
    /// analysis degraded). Chains carry `None` claims when set.
    pub degraded: bool,
    /// Hardware event-queue capacity the proofs are against.
    pub queue_capacity: u64,
    /// Edges of the event-flow graph, boot-sourced first, then by
    /// source event order.
    pub edges: Vec<FlowEdge>,
    /// One chain per installed event, in event order, preceded by the
    /// boot chain.
    pub chains: Vec<ChainReport>,
}

/// Whole-program analysis result.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Supply voltage the energy bounds were computed at.
    pub vdd_v: f64,
    /// True when the analysis had to give up on whole-program claims
    /// (indirect jump to an unknown address, dynamic `isw`/`setaddr`,
    /// control past the image end). Reachability and bounds are not
    /// trustworthy when set; termination verdicts degrade to Unknown.
    pub degraded: bool,
    /// Every IMEM word address that can be an instruction start.
    pub reachable: BTreeSet<Addr>,
    /// Boot-path report (power-on at pc 0 to the first `done`).
    pub boot: HandlerReport,
    /// One report per event-table entry, in `EventKind::ALL` order.
    pub handlers: Vec<HandlerReport>,
    /// All findings, errors first.
    pub diagnostics: Vec<Diagnostic>,
    /// Provided image size in words.
    pub imem_words: usize,
    /// Done-terminating regions (boot first when proved, then handler
    /// roots in event order). Kept only for snapbench's `aot` probe, its
    /// one reader outside this crate's tests.
    pub regions: Vec<ProvenRegion>,
    /// Whole-image event-flow graph and activation-chain proofs.
    pub flow: FlowReport,
}

impl Analysis {
    /// True when no error-severity diagnostics were found.
    pub fn is_clean(&self) -> bool {
        !self
            .diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Highest severity present, if any diagnostics at all.
    pub fn worst_severity(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }
}

/// Analyze a raw IMEM image (little-endian words, as loaded at address
/// 0). No symbol names or source lines are available in this form.
pub fn analyze_image(imem: &[u16], point: OperatingPoint) -> Analysis {
    analyzer::analyze(imem, None, None, point, &[])
}

/// Analyze an assembled [`snap_asm::Program`]: symbols name handlers in
/// the report, and `; lint:allow(id)` markers recorded in the program's
/// source-line table suppress matching diagnostics.
pub fn analyze_program(program: &snap_asm::Program, point: OperatingPoint) -> Analysis {
    let imem = program.imem_image();
    // Only `.text` labels can name entries in the report; `.equ`
    // constants and DMEM labels share the symbol namespace and small
    // values collide with low code addresses.
    let code_symbols = program
        .symbols()
        .iter()
        .filter(|(name, _)| program.is_code_symbol(name))
        .map(|(name, &v)| (name.clone(), v))
        .collect();
    // Data-symbol ranges let the cross-handler DMEM conflict analysis
    // name the object a hazardous store hits.
    let data_ranges = program.data_symbol_ranges();
    analyzer::analyze(
        &imem,
        Some(&code_symbols),
        Some(program.source_lines()),
        point,
        &data_ranges,
    )
}
