//! Hazard lints over the explored contexts.
//!
//! Structural problems (decode errors, indirect jumps, recursion, code
//! running off the image) are reported during exploration; this module
//! adds the whole-program checks that need the final fixpoint: event
//! queue pressure, `r15` FIFO discipline, self-modifying stores,
//! never-written register reads, dead stores, and unreachable code.

use crate::analyzer::{ctx_handler_name, Abs, Ctx, CtxKind, PathCost};
use crate::{Diagnostic, Severity};
use snap_isa::{Addr, AluImmOp, EventKind, Instruction, EVENT_QUEUE_DEPTH};
use std::collections::{BTreeMap, BTreeSet};

/// Event-table indices whose handlers are dispatched by a message
/// arrival, and so may legitimately pop `r15`.
const MSG_EVENTS: [usize; 2] = [3, 6]; // RadioRx, SensorReply

struct Sink {
    diags: Vec<Diagnostic>,
    seen: BTreeSet<(&'static str, Option<Addr>)>,
}

impl Sink {
    fn push(
        &mut self,
        lint: &'static str,
        severity: Severity,
        pc: Option<Addr>,
        handler: Option<String>,
        message: String,
        hint: &str,
    ) {
        if !self.seen.insert((lint, pc)) {
            return;
        }
        self.diags.push(Diagnostic {
            lint,
            severity,
            pc,
            line: None,
            handler,
            message,
            hint: hint.to_string(),
        });
    }
}

pub(crate) fn run(
    ctxs: &[Ctx],
    table: &BTreeMap<usize, BTreeSet<Addr>>,
    written: &[bool; 16],
    degraded: bool,
    imem_words: usize,
) -> Vec<Diagnostic> {
    let mut sink = Sink {
        diags: Vec::new(),
        seen: BTreeSet::new(),
    };

    // Word-accurate footprint of reachable code and `li` immediates.
    let mut code_words: BTreeSet<Addr> = BTreeSet::new();
    let mut li_imm: BTreeSet<Addr> = BTreeSet::new();
    let mut imem_data_unknown = false;
    let mut imem_data_words: BTreeSet<Addr> = BTreeSet::new();
    for ctx in ctxs {
        for (&pc, node) in &ctx.nodes {
            for w in 0..node.wc as Addr {
                code_words.insert(pc + w);
            }
            match node.ins {
                Instruction::AluImm {
                    op: AluImmOp::Li, ..
                } => {
                    li_imm.insert(pc + 1);
                }
                Instruction::ImemLoad { base, offset, .. }
                | Instruction::ImemStore { base, offset, .. } => {
                    match node.in_state[base.index() as usize] {
                        Abs::Const(b) => {
                            imem_data_words.insert(b.wrapping_add(offset));
                        }
                        _ => imem_data_unknown = true,
                    }
                }
                _ => {}
            }
        }
    }

    for ctx in ctxs {
        let handler = ctx_handler_name(ctx.kind);
        let is_root = !matches!(ctx.kind, CtxKind::Sub);

        // Per-root verdict lints and queue/FIFO pressure.
        if is_root {
            let cr = crate::loops::cost_of(ctx);
            let never = !cr.done.reached() && !ctx.degraded && !degraded;
            if never {
                sink.push(
                    "no-done-path",
                    Severity::Error,
                    Some(ctx.entry),
                    handler.clone(),
                    format!(
                        "no path from {} entry at {:#05x} reaches `done`: the activation can never complete",
                        handler.as_deref().unwrap_or("handler"),
                        ctx.entry
                    ),
                    "every handler path must end in `done`; boot must reach `done` or `halt`",
                );
            }
            if let PathCost::Bounded(c) = cr.done {
                if c.swev > EVENT_QUEUE_DEPTH as u64 {
                    sink.push(
                        "swev-flood",
                        Severity::Warning,
                        Some(ctx.entry),
                        handler.clone(),
                        format!(
                            "one activation can post up to {} software events; the event queue holds {}",
                            c.swev, EVENT_QUEUE_DEPTH
                        ),
                        "events posted beyond the queue capacity are dropped; batch work or rate-limit `swev`",
                    );
                }
                if matches!(ctx.kind, CtxKind::Handler(i) if i == 6) && c.r15 > 1 {
                    sink.push(
                        "r15-double-read",
                        Severity::Warning,
                        Some(ctx.entry),
                        handler.clone(),
                        format!(
                            "worst-case path pops `r15` {} times, but a sensor reply delivers one word",
                            c.r15
                        ),
                        "a second read blocks on an empty FIFO (MsgPortEmpty fault)",
                    );
                }
            }
            // r15 FIFO discipline: only message-dispatched handlers may
            // pop the port. In boot the FIFO is guaranteed empty.
            let guarded = matches!(ctx.kind, CtxKind::Handler(i) if MSG_EVENTS.contains(&i));
            if !guarded {
                let severity = if ctx.kind == CtxKind::Boot {
                    Severity::Error
                } else {
                    Severity::Warning
                };
                for &pc in &ctx.r15_reads {
                    sink.push(
                        "r15-read-unguarded",
                        severity,
                        Some(pc),
                        handler.clone(),
                        format!(
                            "`r15` is popped at {pc:#05x} in {}, where no message event guards the FIFO",
                            handler.as_deref().unwrap_or("this context")
                        ),
                        "reading an empty message port faults; only radio-rx / sensor-reply handlers should pop r15",
                    );
                }
            }
        }

        // Per-node lints (all contexts, including callees).
        for (&pc, node) in &ctx.nodes {
            match node.ins {
                Instruction::SchedHi { rt, .. }
                | Instruction::SchedLo { rt, .. }
                | Instruction::Cancel { rt } => {
                    if let Abs::Const(t) = node.in_state[rt.index() as usize] {
                        if t >= 3 {
                            sink.push(
                                "bad-timer-number",
                                Severity::Error,
                                Some(pc),
                                handler.clone(),
                                format!("timer number {t} at {pc:#05x}: hardware has timers 0-2"),
                                "scheduling a timer >= 3 is a hard fault (BadTimer)",
                            );
                        }
                    }
                }
                Instruction::SwEvent { rn } => {
                    if let Abs::Const(e) = node.in_state[rn.index() as usize] {
                        let ev = (e & 7) as usize;
                        if table.get(&ev).is_none_or(BTreeSet::is_empty) {
                            let name = EventKind::from_index(ev)
                                .map(|k| k.to_string())
                                .unwrap_or_default();
                            sink.push(
                                "swev-uninstalled",
                                Severity::Warning,
                                Some(pc),
                                handler.clone(),
                                format!(
                                    "`swev` posts event {name} at {pc:#05x}, but no handler is installed for it"
                                ),
                                "dispatching an uninstalled event runs from address 0 (the boot code)",
                            );
                        }
                    }
                }
                Instruction::SetAddr { rev, raddr } => {
                    let ev = node.in_state[rev.index() as usize];
                    let addr = node.in_state[raddr.index() as usize];
                    if !matches!((ev, addr), (Abs::Const(_), Abs::Const(_))) {
                        sink.push(
                            "setaddr-dynamic",
                            Severity::Warning,
                            Some(pc),
                            handler.clone(),
                            format!(
                                "`setaddr` at {pc:#05x} with a computed event or address: the handler table cannot be recovered"
                            ),
                            "the analysis degrades; install handlers with constant event numbers and labels",
                        );
                    } else if ctx.kind != CtxKind::Boot {
                        sink.push(
                            "setaddr-in-handler",
                            Severity::Info,
                            Some(pc),
                            handler.clone(),
                            format!("handler table rewritten outside boot at {pc:#05x}"),
                            "mode-switching is legal; the analysis joins all installed targets",
                        );
                    }
                }
                Instruction::ImemStore { base, offset, .. } => {
                    match node.in_state[base.index() as usize] {
                        Abs::Const(b) => {
                            let t = b.wrapping_add(offset);
                            if li_imm.contains(&t) {
                                sink.push(
                                    "isw-reachable-code",
                                    Severity::Warning,
                                    Some(pc),
                                    handler.clone(),
                                    format!(
                                        "`isw` at {pc:#05x} patches the immediate word at {t:#05x} of a reachable `li`"
                                    ),
                                    "self-modifying constant; the analysis treats that li as loading an unknown value",
                                );
                            } else if code_words.contains(&t) {
                                sink.push(
                                    "isw-reachable-code",
                                    Severity::Warning,
                                    Some(pc),
                                    handler.clone(),
                                    format!(
                                        "`isw` at {pc:#05x} overwrites reachable code at {t:#05x}"
                                    ),
                                    "rewriting opcodes defeats static analysis; verdicts and bounds degrade",
                                );
                            }
                        }
                        _ => {
                            sink.push(
                                "isw-dynamic-target",
                                Severity::Warning,
                                Some(pc),
                                handler.clone(),
                                format!("`isw` at {pc:#05x} stores to a computed IMEM address"),
                                "the store could hit any code; verdicts and bounds degrade",
                            );
                        }
                    }
                }
                _ => {}
            }
        }

        dead_stores(&mut sink, ctx, handler.as_deref());
    }

    unbounded_loops(&mut sink, ctxs);
    read_never_written(&mut sink, ctxs, written);
    if !degraded && !imem_data_unknown {
        unreachable_code(&mut sink, &code_words, &imem_data_words, imem_words);
    }
    handler_coverage(&mut sink, table);

    sink.diags
}

fn unbounded_loops(sink: &mut Sink, ctxs: &[Ctx]) {
    for ctx in ctxs {
        let cr = crate::loops::cost_of(ctx);
        let handler = ctx_handler_name(ctx.kind);
        for pc in cr.unbounded_sccs {
            sink.push(
                "unbounded-loop",
                Severity::Warning,
                Some(pc),
                handler.clone(),
                format!("the loop at {pc:#05x} does not match a bounded counter idiom"),
                "use a dedicated `subi rX, 1; bnez rX, top` countdown so the analysis can bound it",
            );
        }
    }
}

/// Registers read somewhere but written nowhere in reachable code.
/// Well-defined (registers power on zeroed and persist), so a warning:
/// usually it means a typo'd register number. `r0` is exempt — reading
/// it as a constant zero is idiomatic.
fn read_never_written(sink: &mut Sink, ctxs: &[Ctx], written: &[bool; 16]) {
    let mut first_read: BTreeMap<u8, Addr> = BTreeMap::new();
    for ctx in ctxs {
        for (&pc, node) in &ctx.nodes {
            for r in node.ins.source_regs() {
                let i = r.index();
                if i == 0 || i == 15 || written[i as usize] {
                    continue;
                }
                let e = first_read.entry(i).or_insert(pc);
                *e = (*e).min(pc);
            }
        }
    }
    for (r, pc) in first_read {
        sink.push(
            "read-never-written",
            Severity::Warning,
            Some(pc),
            None,
            format!("r{r} is read (first at {pc:#05x}) but no reachable instruction writes it"),
            "it always reads as the power-on zero; if that is intended, use r0 or `; lint:allow(read-never-written)`",
        );
    }
}

/// A register written and then provably overwritten before any read,
/// within an extended basic block.
fn dead_stores(sink: &mut Sink, ctx: &Ctx, handler: Option<&str>) {
    // Global (per-context) predecessor counts: the walk must not cross
    // a join point, where another path could read the value.
    let mut preds: BTreeMap<Addr, usize> = BTreeMap::new();
    for node in ctx.nodes.values() {
        for &s in &node.succs {
            *preds.entry(s).or_insert(0) += 1;
        }
    }
    for (&pc, node) in &ctx.nodes {
        let Some(rd) = node.ins.dest_reg() else {
            continue;
        };
        if rd.index() == 15
            || node.ins.reads_msg_port() // the r15 pop is the point
            || matches!(
                node.ins,
                Instruction::Rand { .. } // advances the LFSR
                    | Instruction::Jal { .. }
                    | Instruction::Jalr { .. }
            )
        {
            continue;
        }
        let mut cur = pc;
        let mut cur_node = node;
        for _ in 0..64 {
            if cur_node.succs.len() != 1 || cur_node.call.is_some() {
                break; // join/branch/call: another path may read it
            }
            let next = cur_node.succs[0];
            if preds.get(&next).copied().unwrap_or(0) != 1 {
                break;
            }
            let Some(n) = ctx.nodes.get(&next) else { break };
            if n.ins.source_regs().contains(&rd) || n.call.is_some() {
                break; // live (or unknown through a call)
            }
            if n.ins.dest_reg() == Some(rd) {
                sink.push(
                    "dead-store",
                    Severity::Warning,
                    Some(pc),
                    handler.map(str::to_string),
                    format!(
                        "the value written to {rd} at {pc:#05x} is overwritten at {next:#05x} without being read"
                    ),
                    "drop the first write, or check for a typo'd register",
                );
                break;
            }
            cur = next;
            cur_node = n;
        }
        let _ = cur;
    }
}

/// IMEM words that are neither reachable code nor known data targets.
fn unreachable_code(
    sink: &mut Sink,
    code_words: &BTreeSet<Addr>,
    imem_data_words: &BTreeSet<Addr>,
    imem_words: usize,
) {
    let mut run_start: Option<Addr> = None;
    let flush = |start: Option<Addr>, end: Addr, sink: &mut Sink| {
        if let Some(s) = start {
            sink.push(
                "unreachable-code",
                Severity::Warning,
                Some(s),
                None,
                format!(
                    "IMEM words {s:#05x}..{end:#05x} are never executed or read",
                    end = end
                ),
                "dead code costs IMEM; delete it, or point a handler/jump at it if it should run",
            );
        }
    };
    for w in 0..imem_words as Addr {
        let covered = code_words.contains(&w) || imem_data_words.contains(&w);
        match (covered, run_start) {
            (false, None) => run_start = Some(w),
            (true, Some(_)) => {
                flush(run_start.take(), w, sink);
            }
            _ => {}
        }
    }
    flush(run_start, imem_words as Addr, sink);
}

/// Event-table coverage: one info listing uninstalled events, when at
/// least one handler is installed; plus Never verdicts are reported by
/// `no-done-path` already.
fn handler_coverage(sink: &mut Sink, table: &BTreeMap<usize, BTreeSet<Addr>>) {
    let installed: Vec<usize> = table
        .iter()
        .filter(|(_, v)| !v.is_empty())
        .map(|(&k, _)| k)
        .collect();
    if installed.is_empty() {
        return;
    }
    let missing: Vec<String> = (0..snap_isa::EVENT_TABLE_ENTRIES)
        .filter(|i| !installed.contains(i))
        .filter_map(|i| EventKind::from_index(i).map(|k| k.to_string()))
        .collect();
    if missing.is_empty() {
        return;
    }
    sink.push(
        "handler-not-installed",
        Severity::Info,
        None,
        None,
        format!("events with no handler installed: {}", missing.join(", ")),
        "dispatching one of these runs from address 0 (the boot code); install a handler or never post them",
    );
}
