//! Whole-program abstract interpretation over the IMEM image.
//!
//! Values are tracked as known constants, the current call's return
//! address (`Link`), or unknown (`Top`). Contexts — boot, each handler
//! root, and each distinct (callee entry, entry state) pair — are
//! explored with a worklist to a join fixpoint; calls get memoized,
//! context-sensitive summaries. Branches are **never** pruned on
//! constant operands: the reachable set and the cost graph must
//! over-approximate every real execution, because `snap-smith
//! --soundness` holds us to that.
//!
//! The whole analysis iterates a few rounds so three global facts can
//! stabilize: the event-handler table (from reachable `setaddr`s), the
//! set of registers the program ever writes (never-written registers
//! keep their power-on zero, so handler entry states may assume
//! `Const(0)` for them), and the set of `li` immediate words targeted
//! by self-modifying `isw` (whose loads degrade to unknown).

use crate::{Analysis, Bound, Diagnostic, HandlerReport, PaperBand, Severity, Termination};
use snap_energy::model::InstrShape;
use snap_energy::{OperatingPoint, SnapEnergyModel};
use snap_isa::Addr;
use snap_isa::{AluImmOp, AluOp, Instruction, Reg, ShiftOp, Word, EVENT_TABLE_ENTRIES};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

/// Maximum call depth before the analysis gives up on a call chain.
const MAX_CALL_DEPTH: usize = 32;
/// Rounds of the outer (table / written-set / poison) iteration.
const MAX_ROUNDS: usize = 5;

/// Abstract register value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Abs {
    /// Known 16-bit constant.
    Const(u16),
    /// The current call frame's return address (value unknown, but
    /// `jr` on it is a return).
    Link,
    /// Unknown.
    Top,
}

impl Abs {
    fn join(self, other: Abs) -> Abs {
        if self == other {
            self
        } else {
            Abs::Top
        }
    }
}

pub(crate) type RegState = [Abs; 16];

fn join_states(a: &RegState, b: &RegState) -> RegState {
    let mut out = *a;
    for (o, v) in out.iter_mut().zip(b.iter()) {
        *o = o.join(*v);
    }
    out
}

/// Map `Link` markers to `Top` — used when a state crosses a call
/// boundary, so return addresses of other frames are plain unknowns.
fn strip_links(state: &RegState) -> RegState {
    let mut out = *state;
    for v in out.iter_mut() {
        if *v == Abs::Link {
            *v = Abs::Top;
        }
    }
    out
}

/// Additive path cost: dynamic instructions, energy, and the event /
/// message-port side-channel counters the queue lints need.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Cost {
    pub ins: u64,
    pub pj: f64,
    pub swev: u64,
    pub r15: u64,
    /// `swev` posts split by target event index, for the `swev rn`
    /// sites where the abstract value of `rn` is a known constant.
    pub swev_by: [u64; 8],
    /// True when some `swev rn` on the path had an unknown `rn`: the
    /// per-event split under-counts and the event-flow graph must not
    /// trust it.
    pub swev_unknown: bool,
}

impl Cost {
    pub(crate) fn add(self, o: Cost) -> Cost {
        let mut swev_by = self.swev_by;
        for (a, b) in swev_by.iter_mut().zip(o.swev_by.iter()) {
            *a = a.saturating_add(*b);
        }
        Cost {
            ins: self.ins.saturating_add(o.ins),
            pj: self.pj + o.pj,
            swev: self.swev.saturating_add(o.swev),
            r15: self.r15.saturating_add(o.r15),
            swev_by,
            swev_unknown: self.swev_unknown || o.swev_unknown,
        }
    }

    pub(crate) fn max(self, o: Cost) -> Cost {
        let mut swev_by = self.swev_by;
        for (a, b) in swev_by.iter_mut().zip(o.swev_by.iter()) {
            *a = (*a).max(*b);
        }
        Cost {
            ins: self.ins.max(o.ins),
            pj: self.pj.max(o.pj),
            swev: self.swev.max(o.swev),
            r15: self.r15.max(o.r15),
            swev_by,
            swev_unknown: self.swev_unknown || o.swev_unknown,
        }
    }

    pub(crate) fn scale(self, n: u64) -> Cost {
        let mut swev_by = self.swev_by;
        for a in swev_by.iter_mut() {
            *a = a.saturating_mul(n);
        }
        Cost {
            ins: self.ins.saturating_mul(n),
            pj: self.pj * n as f64,
            swev: self.swev.saturating_mul(n),
            r15: self.r15.saturating_mul(n),
            swev_by,
            swev_unknown: self.swev_unknown,
        }
    }
}

/// Cost of the worst path to some point: not reached at all, bounded,
/// or through an unboundable region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum PathCost {
    Unreached,
    Bounded(Cost),
    Unbounded,
}

impl PathCost {
    /// Max-join of two alternatives.
    pub(crate) fn join(self, o: PathCost) -> PathCost {
        match (self, o) {
            (PathCost::Unreached, x) | (x, PathCost::Unreached) => x,
            (PathCost::Unbounded, _) | (_, PathCost::Unbounded) => PathCost::Unbounded,
            (PathCost::Bounded(a), PathCost::Bounded(b)) => PathCost::Bounded(a.max(b)),
        }
    }

    /// Sequential composition.
    pub(crate) fn add(self, c: Cost) -> PathCost {
        match self {
            PathCost::Unreached => PathCost::Unreached,
            PathCost::Unbounded => PathCost::Unbounded,
            PathCost::Bounded(a) => PathCost::Bounded(a.add(c)),
        }
    }

    pub(crate) fn reached(self) -> bool {
        !matches!(self, PathCost::Unreached)
    }
}

/// A call site's view of its callee.
#[derive(Debug, Clone)]
pub(crate) struct CallInfo {
    /// Some path in the callee ends the whole handler with `done`.
    pub done_exists: bool,
    /// Worst callee-internal cost to that `done` (excluding the `jal`).
    pub done_cost: PathCost,
}

/// One explored instruction in one context.
#[derive(Debug, Clone)]
pub(crate) struct Node {
    pub ins: Instruction,
    pub wc: usize,
    pub in_state: RegState,
    pub out_state: RegState,
    pub succs: Vec<Addr>,
    /// `done`/`halt`: ends the activation here.
    pub done_exit: bool,
    /// `jr` on a `Link` value: returns to the caller.
    pub ret_exit: bool,
    pub call: Option<CallInfo>,
    /// Cost of passing through this node (for calls: `jal` plus the
    /// callee's worst return cost).
    pub cost: Cost,
    /// Passing through cannot be bounded (callee return cost unknown).
    pub unbounded_through: bool,
    /// The instruction's own cost (without any callee contribution).
    pub base_cost: Cost,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CtxKind {
    Boot,
    Handler(usize),
    Sub,
}

/// One analyzed context: an entry point plus everything reachable from
/// it without returning.
pub(crate) struct Ctx {
    pub kind: CtxKind,
    pub entry: Addr,
    /// Register state at `entry` before any loop-carried joins — used
    /// by the loop-bound analysis for initial counter values.
    pub entry_state: RegState,
    pub nodes: BTreeMap<Addr, Node>,
    /// Context-local trust loss: indirect jump, recursion, degraded
    /// callee. Verdicts and bounds from this context are Unknown/None.
    pub degraded: bool,
    /// Some path dead-ends (decode error or control past the image).
    pub has_dead_end: bool,
    /// Some reachable call has an unboundable callee.
    pub has_unbounded_call: bool,
    /// Some reachable callee's bound used the 65536-trip fallback.
    pub has_loose_call: bool,
    /// Pcs (in this context or a callee, attributed to the call site)
    /// that pop the `r15` message port.
    pub r15_reads: Vec<Addr>,
}

/// Memoized per-(entry, entry-state) callee summary.
#[derive(Debug, Clone)]
pub(crate) struct Summary {
    pub ret_exists: bool,
    pub ret_cost: PathCost,
    pub done_exists: bool,
    pub done_cost: PathCost,
    pub ret_state: RegState,
    pub degraded: bool,
    pub has_unbounded: bool,
    pub dead_end: bool,
    pub reads_r15: bool,
    pub loose: bool,
}

impl Summary {
    /// Fallback when recursion or the depth cap stops the analysis:
    /// claims nothing and poisons the caller's verdict via `degraded`.
    fn degraded_fallback() -> Summary {
        Summary {
            ret_exists: true,
            ret_cost: PathCost::Unbounded,
            done_exists: false,
            done_cost: PathCost::Unreached,
            ret_state: [Abs::Top; 16],
            degraded: true,
            has_unbounded: true,
            dead_end: false,
            reads_r15: false,
            loose: false,
        }
    }
}

/// One analysis pass (one round of the outer iteration).
pub(crate) struct Pass<'a> {
    imem: &'a [Word],
    model: SnapEnergyModel,
    poison: &'a BTreeSet<Addr>,
    /// Registers assumed written somewhere (handler entry = Top);
    /// `None` means assume everything written.
    written: Option<[bool; 16]>,
    summaries: HashMap<(Addr, RegState), Summary>,
    in_progress: Vec<Addr>,
    pub ctxs: Vec<Ctx>,
    pub degraded_global: bool,
    pub diags: Vec<Diagnostic>,
    diag_seen: BTreeSet<(&'static str, Addr)>,
}

impl<'a> Pass<'a> {
    fn new(
        imem: &'a [Word],
        point: OperatingPoint,
        poison: &'a BTreeSet<Addr>,
        written: Option<[bool; 16]>,
    ) -> Pass<'a> {
        Pass {
            imem,
            model: SnapEnergyModel::new(point),
            poison,
            written,
            summaries: HashMap::new(),
            in_progress: Vec::new(),
            ctxs: Vec::new(),
            degraded_global: false,
            diags: Vec::new(),
            diag_seen: BTreeSet::new(),
        }
    }

    fn handler_entry_state(&self) -> RegState {
        let mut st = [Abs::Top; 16];
        if let Some(written) = self.written {
            for (r, v) in st.iter_mut().enumerate() {
                if !written[r] {
                    // Never written anywhere reachable: still holds its
                    // power-on zero when the handler runs.
                    *v = Abs::Const(0);
                }
            }
        }
        st[15] = Abs::Top;
        st
    }

    pub(crate) fn diag(
        &mut self,
        lint: &'static str,
        severity: Severity,
        pc: Addr,
        kind: CtxKind,
        message: String,
        hint: &str,
    ) {
        if !self.diag_seen.insert((lint, pc)) {
            return;
        }
        self.diags.push(Diagnostic {
            lint,
            severity,
            pc: Some(pc),
            line: None,
            handler: ctx_handler_name(kind),
            message,
            hint: hint.to_string(),
        });
    }

    fn base_cost(&self, ins: &Instruction, st: &RegState) -> Cost {
        let pj = self
            .model
            .instruction_energy(InstrShape {
                class: ins.class(),
                words: ins.word_count(),
                dmem: ins.accesses_dmem(),
                imem_data: ins.accesses_imem_data(),
            })
            .as_pj();
        let mut swev_by = [0u64; 8];
        let mut swev_unknown = false;
        if let Instruction::SwEvent { rn } = ins {
            match st[rn.index() as usize] {
                Abs::Const(v) => swev_by[(v & 7) as usize] = 1,
                _ => swev_unknown = true,
            }
        }
        Cost {
            ins: 1,
            pj,
            swev: u64::from(matches!(ins, Instruction::SwEvent { .. })),
            r15: u64::from(ins.reads_msg_port()),
            swev_by,
            swev_unknown,
        }
    }

    /// Explore one context to a fixpoint. Returns its index in `ctxs`.
    fn explore(
        &mut self,
        entry: Addr,
        entry_state: RegState,
        kind: CtxKind,
        depth: usize,
    ) -> usize {
        let mut nodes: BTreeMap<Addr, Node> = BTreeMap::new();
        let mut in_states: BTreeMap<Addr, RegState> = BTreeMap::new();
        let mut work: VecDeque<Addr> = VecDeque::new();
        let mut degraded = false;
        let mut has_dead_end = false;
        let mut has_unbounded_call = false;
        let mut has_loose_call = false;
        let mut r15_reads: Vec<Addr> = Vec::new();
        in_states.insert(entry, entry_state);
        work.push_back(entry);

        while let Some(pc) = work.pop_front() {
            let st = in_states[&pc];
            if let Some(n) = nodes.get(&pc) {
                if n.in_state == st {
                    continue; // already explored under this state
                }
            }
            if pc as usize >= self.imem.len() {
                // Control runs past the provided image into the
                // zero-filled remainder of the bank — we refuse to model
                // that, so the reachable set is no longer trustworthy.
                self.diag(
                    "falls-off-image",
                    Severity::Error,
                    pc,
                    kind,
                    format!("control reaches {pc:#05x}, past the end of the image"),
                    "end every path with `done` (handlers) or `halt`/`jmp` (boot)",
                );
                has_dead_end = true;
                self.degraded_global = true;
                degraded = true;
                continue;
            }
            let first = self.imem[pc as usize];
            let second = self.imem.get(pc as usize + 1).copied().unwrap_or(0);
            let ins = match Instruction::decode(first, Some(second)) {
                Ok(ins) => ins,
                Err(e) => {
                    self.diag(
                        "decode-error",
                        Severity::Error,
                        pc,
                        kind,
                        format!("word {first:#06x} at {pc:#05x} is not an instruction: {e}"),
                        "control flows into data or a misaligned immediate word",
                    );
                    has_dead_end = true;
                    nodes.insert(
                        pc,
                        Node {
                            ins: Instruction::Nop,
                            wc: 1,
                            in_state: st,
                            out_state: st,
                            succs: Vec::new(),
                            done_exit: false,
                            ret_exit: false,
                            call: None,
                            cost: Cost::default(),
                            unbounded_through: false,
                            base_cost: Cost::default(),
                        },
                    );
                    continue;
                }
            };
            let wc = ins.word_count();
            let out = transfer(&ins, &st, pc, self.poison);
            let base_cost = self.base_cost(&ins, &st);
            if ins.reads_msg_port() {
                r15_reads.push(pc);
            }
            let mut cost = base_cost;
            let mut succs: Vec<Addr> = Vec::new();
            let mut done_exit = false;
            let mut ret_exit = false;
            let mut call = None;
            let mut unbounded_through = false;
            // Successor in-state overrides (call returns).
            let mut succ_state: Option<RegState> = None;

            let fallthrough = pc + wc as Addr;
            match ins {
                Instruction::Branch { target, .. } => {
                    // Both ways, always: constant-folding a branch away
                    // would let the reachable set under-approximate.
                    succs.push(target);
                    succs.push(fallthrough);
                }
                Instruction::Jmp { target } => succs.push(target),
                Instruction::Done | Instruction::Halt => done_exit = true,
                Instruction::Jr { rs } => match st[rs.index() as usize] {
                    Abs::Link => ret_exit = true,
                    Abs::Const(a) => succs.push(a),
                    Abs::Top => {
                        self.diag(
                            "indirect-jump",
                            Severity::Warning,
                            pc,
                            kind,
                            format!("`jr {rs}` with an unknown target"),
                            "the analysis cannot follow this; verdicts and bounds degrade",
                        );
                        degraded = true;
                        self.degraded_global = true;
                    }
                },
                Instruction::Jal { rd, target } => {
                    let (s, c) = self.call(pc, rd, target, &out, kind, depth);
                    if s.ret_exists {
                        succs.push(fallthrough);
                        let mut rstate = strip_links(&s.ret_state);
                        rstate[15] = Abs::Top;
                        succ_state = Some(rstate);
                        match s.ret_cost {
                            PathCost::Bounded(rc) => cost = cost.add(rc),
                            _ => unbounded_through = true,
                        }
                    }
                    if s.reads_r15 {
                        r15_reads.push(pc);
                    }
                    if s.degraded {
                        degraded = true;
                    }
                    if s.dead_end {
                        has_dead_end = true;
                    }
                    if s.has_unbounded {
                        has_unbounded_call = true;
                    }
                    if s.loose {
                        has_loose_call = true;
                    }
                    call = Some(c);
                }
                Instruction::Jalr { rd, rs } => match st[rs.index() as usize] {
                    Abs::Const(target) => {
                        let (s, c) = self.call(pc, rd, target, &out, kind, depth);
                        if s.ret_exists {
                            succs.push(fallthrough);
                            let mut rstate = strip_links(&s.ret_state);
                            rstate[15] = Abs::Top;
                            succ_state = Some(rstate);
                            match s.ret_cost {
                                PathCost::Bounded(rc) => cost = cost.add(rc),
                                _ => unbounded_through = true,
                            }
                        }
                        if s.reads_r15 {
                            r15_reads.push(pc);
                        }
                        if s.degraded {
                            degraded = true;
                        }
                        if s.dead_end {
                            has_dead_end = true;
                        }
                        if s.has_unbounded {
                            has_unbounded_call = true;
                        }
                        if s.loose {
                            has_loose_call = true;
                        }
                        call = Some(c);
                    }
                    _ => {
                        self.diag(
                            "indirect-jump",
                            Severity::Warning,
                            pc,
                            kind,
                            format!("`jalr {rd}, {rs}` with an unknown target"),
                            "the analysis cannot follow this; verdicts and bounds degrade",
                        );
                        degraded = true;
                        self.degraded_global = true;
                    }
                },
                _ => succs.push(fallthrough),
            }

            for &s in &succs {
                let ns = succ_state.as_ref().unwrap_or(&out);
                match in_states.get_mut(&s) {
                    Some(existing) => {
                        let joined = join_states(existing, ns);
                        if joined != *existing {
                            *existing = joined;
                            work.push_back(s);
                        }
                    }
                    None => {
                        in_states.insert(s, *ns);
                        work.push_back(s);
                    }
                }
            }
            nodes.insert(
                pc,
                Node {
                    ins,
                    wc,
                    in_state: st,
                    out_state: out,
                    succs,
                    done_exit,
                    ret_exit,
                    call,
                    cost,
                    unbounded_through,
                    base_cost,
                },
            );
        }

        self.ctxs.push(Ctx {
            kind,
            entry,
            entry_state,
            nodes,
            degraded,
            has_dead_end,
            has_unbounded_call,
            has_loose_call,
            r15_reads,
        });
        self.ctxs.len() - 1
    }

    /// Analyze (or reuse) a callee summary for a call at `pc`.
    fn call(
        &mut self,
        pc: Addr,
        link: Reg,
        target: Addr,
        caller_out: &RegState,
        kind: CtxKind,
        depth: usize,
    ) -> (Summary, CallInfo) {
        let mut callee_state = strip_links(caller_out);
        if link.index() != 15 {
            callee_state[link.index() as usize] = Abs::Link;
        }
        let key = (target, callee_state);
        let summary = if let Some(s) = self.summaries.get(&key) {
            s.clone()
        } else if self.in_progress.contains(&target) || depth >= MAX_CALL_DEPTH {
            let lint = if self.in_progress.contains(&target) {
                "recursion"
            } else {
                "call-depth"
            };
            self.diag(
                lint,
                Severity::Warning,
                pc,
                kind,
                format!(
                    "call to {target:#05x} {}",
                    if lint == "recursion" {
                        "re-enters a function already on the call stack"
                    } else {
                        "exceeds the analyzable call depth"
                    }
                ),
                "the analysis cannot bound this call chain; verdicts degrade",
            );
            let s = Summary::degraded_fallback();
            self.summaries.insert(key, s.clone());
            s
        } else {
            self.in_progress.push(target);
            let idx = self.explore(target, callee_state, CtxKind::Sub, depth + 1);
            self.in_progress.pop();
            let s = self.summarize(idx);
            self.summaries.insert(key, s.clone());
            s
        };
        let info = CallInfo {
            done_exists: summary.done_exists,
            done_cost: summary.done_cost,
        };
        (summary, info)
    }

    /// Condense an explored callee context into a summary.
    fn summarize(&mut self, idx: usize) -> Summary {
        let ctx = &self.ctxs[idx];
        let cr = crate::loops::cost_of(ctx);
        let mut ret_state: Option<RegState> = None;
        let mut ret_exists = false;
        for node in ctx.nodes.values() {
            if node.ret_exit {
                ret_exists = true;
                ret_state = Some(match ret_state {
                    Some(s) => join_states(&s, &node.in_state),
                    None => node.in_state,
                });
            }
        }
        Summary {
            ret_exists,
            ret_cost: cr.ret,
            done_exists: cr.done.reached(),
            done_cost: cr.done,
            ret_state: ret_state.unwrap_or([Abs::Top; 16]),
            degraded: ctx.degraded,
            has_unbounded: cr.has_unbounded || ctx.has_unbounded_call,
            dead_end: ctx.has_dead_end,
            reads_r15: !ctx.r15_reads.is_empty(),
            loose: cr.loose || ctx.has_loose_call,
        }
    }
}

pub(crate) fn ctx_handler_name(kind: CtxKind) -> Option<String> {
    match kind {
        CtxKind::Boot => Some("boot".to_string()),
        CtxKind::Handler(i) => snap_isa::EventKind::from_index(i).map(|e| e.to_string()),
        CtxKind::Sub => None,
    }
}

/// Abstract transfer function: next register state after `ins`.
fn transfer(ins: &Instruction, st: &RegState, pc: Addr, poison: &BTreeSet<Addr>) -> RegState {
    let get = |r: Reg| st[r.index() as usize];
    let unop = |v: Abs, f: &dyn Fn(u16) -> u16| match v {
        Abs::Const(x) => Abs::Const(f(x)),
        _ => Abs::Top,
    };
    let binop = |a: Abs, b: Abs, f: &dyn Fn(u16, u16) -> u16| match (a, b) {
        (Abs::Const(x), Abs::Const(y)) => Abs::Const(f(x, y)),
        _ => Abs::Top,
    };
    let shift = |op: ShiftOp, x: u16, n: u16| -> u16 {
        let n = u32::from(n & 15);
        match op {
            ShiftOp::Sll => x.wrapping_shl(n),
            ShiftOp::Srl => x.wrapping_shr(n),
            ShiftOp::Sra => ((x as i16).wrapping_shr(n)) as u16,
            ShiftOp::Rol => x.rotate_left(n),
            ShiftOp::Ror => x.rotate_right(n),
        }
    };

    let write: Option<(Reg, Abs)> = match *ins {
        Instruction::AluImm { op, rd, imm } => {
            let v = match op {
                AluImmOp::Li => {
                    if poison.contains(&(pc + 1)) {
                        // A reachable `isw` targets this immediate word:
                        // the loaded value is whatever was last stored.
                        Abs::Top
                    } else {
                        Abs::Const(imm)
                    }
                }
                AluImmOp::Addi => unop(get(rd), &|x| x.wrapping_add(imm)),
                AluImmOp::Subi => unop(get(rd), &|x| x.wrapping_sub(imm)),
                AluImmOp::Andi => unop(get(rd), &|x| x & imm),
                AluImmOp::Ori => unop(get(rd), &|x| x | imm),
                AluImmOp::Xori => unop(get(rd), &|x| x ^ imm),
                AluImmOp::Slti => unop(get(rd), &|x| u16::from((x as i16) < (imm as i16))),
                AluImmOp::Sltiu => unop(get(rd), &|x| u16::from(x < imm)),
            };
            Some((rd, v))
        }
        Instruction::AluReg { op, rd, rs } => {
            let (a, b) = (get(rd), get(rs));
            let v = match op {
                AluOp::Mov => b, // propagates Link through register moves
                AluOp::Not => unop(b, &|x| !x),
                AluOp::Neg => unop(b, &|x| x.wrapping_neg()),
                AluOp::Add => binop(a, b, &u16::wrapping_add),
                AluOp::Sub => binop(a, b, &u16::wrapping_sub),
                AluOp::And => binop(a, b, &|x, y| x & y),
                AluOp::Or => binop(a, b, &|x, y| x | y),
                AluOp::Xor => binop(a, b, &|x, y| x ^ y),
                AluOp::Slt => binop(a, b, &|x, y| u16::from((x as i16) < (y as i16))),
                AluOp::Sltu => binop(a, b, &|x, y| u16::from(x < y)),
                // Carry flag is not tracked.
                AluOp::Addc | AluOp::Subc => Abs::Top,
            };
            Some((rd, v))
        }
        Instruction::ShiftImm { op, rd, amount } => {
            Some((rd, unop(get(rd), &|x| shift(op, x, u16::from(amount)))))
        }
        Instruction::ShiftReg { op, rd, rs } => {
            Some((rd, binop(get(rd), get(rs), &|x, n| shift(op, x, n))))
        }
        Instruction::Bfs { rd, rs, mask } => Some((
            rd,
            binop(get(rd), get(rs), &|a, b| (a & !mask) | (b & mask)),
        )),
        Instruction::Load { rd, .. }
        | Instruction::ImemLoad { rd, .. }
        | Instruction::Rand { rd } => Some((rd, Abs::Top)),
        // Calls are handled at the call site; everything else writes no
        // register.
        _ => None,
    };

    let mut out = *st;
    if let Some((rd, v)) = write {
        let i = rd.index() as usize;
        out[i] = if i == 15 { Abs::Top } else { v };
    }
    out
}

/// The verdict/bound for one root context.
fn root_report(ctx: &Ctx, global_degraded: bool) -> (Termination, Option<Bound>, bool) {
    let cr = crate::loops::cost_of(ctx);
    let degraded = global_degraded || ctx.degraded;
    let done_reached = cr.done.reached();
    let terminates = if degraded {
        Termination::Unknown
    } else if !done_reached {
        Termination::Never
    } else if !cr.has_unbounded && !ctx.has_unbounded_call && !ctx.has_dead_end {
        Termination::Proved
    } else {
        Termination::Unknown
    };
    let bound = match (degraded, cr.done) {
        (false, PathCost::Bounded(c)) => Some(Bound {
            instructions: c.ins,
            energy_pj: c.pj,
        }),
        _ => None,
    };
    (terminates, bound, cr.loose || ctx.has_loose_call)
}

/// Everything the outer iteration learns in one round.
struct RoundFacts {
    written: [bool; 16],
    table: BTreeMap<usize, BTreeSet<Addr>>,
    poison: BTreeSet<Addr>,
    /// `isw`/`setaddr` with unknown operands, or a store into live
    /// non-`li` code: the program rewrites itself in ways we can't
    /// model.
    dynamic_degrade: bool,
}

/// Harvest the global facts the next round needs from this round's
/// contexts.
fn harvest(pass: &Pass) -> RoundFacts {
    let mut written = [false; 16];
    let mut table: BTreeMap<usize, BTreeSet<Addr>> = BTreeMap::new();
    let mut poison: BTreeSet<Addr> = BTreeSet::new();
    let mut dynamic_degrade = false;

    // Word-accurate footprint of reachable code, and which words are
    // `li` immediates (patchable without degrading the analysis).
    let mut li_imm: BTreeSet<Addr> = BTreeSet::new();
    let mut code_words: BTreeSet<Addr> = BTreeSet::new();
    for ctx in &pass.ctxs {
        for (&pc, node) in &ctx.nodes {
            for w in 0..node.wc as Addr {
                code_words.insert(pc + w);
            }
            if matches!(
                node.ins,
                Instruction::AluImm {
                    op: AluImmOp::Li,
                    ..
                }
            ) {
                li_imm.insert(pc + 1);
            }
        }
    }

    for ctx in &pass.ctxs {
        for (&_pc, node) in &ctx.nodes {
            if let Some(rd) = node.ins.dest_reg() {
                written[rd.index() as usize] = true;
            }
            match node.ins {
                Instruction::SetAddr { rev, raddr } => {
                    let ev = node.in_state[rev.index() as usize];
                    let addr = node.in_state[raddr.index() as usize];
                    match (ev, addr) {
                        (Abs::Const(e), Abs::Const(a)) => {
                            table.entry((e & 7) as usize).or_default().insert(a);
                        }
                        _ => dynamic_degrade = true,
                    }
                }
                Instruction::ImemStore { base, offset, .. } => {
                    match node.in_state[base.index() as usize] {
                        Abs::Const(b) => {
                            let t = b.wrapping_add(offset);
                            if li_imm.contains(&t) {
                                poison.insert(t);
                            } else if code_words.contains(&t) {
                                dynamic_degrade = true;
                            }
                            // Stores outside reachable code are plain
                            // data patching — no impact on the analysis.
                        }
                        _ => dynamic_degrade = true,
                    }
                }
                _ => {}
            }
        }
    }

    RoundFacts {
        written,
        table,
        poison,
        dynamic_degrade,
    }
}

/// Run the outer iteration and assemble the final [`Analysis`].
pub(crate) fn analyze(
    imem: &[Word],
    symbols: Option<&BTreeMap<String, i64>>,
    lines: Option<&BTreeMap<Addr, snap_asm::SourceLine>>,
    point: OperatingPoint,
    data_ranges: &[(String, Addr, Addr)],
) -> Analysis {
    let mut poison: BTreeSet<Addr> = BTreeSet::new();
    let mut table: BTreeMap<usize, BTreeSet<Addr>> = BTreeMap::new();
    let mut written: Option<[bool; 16]> = None;
    let mut pass;
    let mut facts;
    let mut unstable = false;
    let mut round = 0;
    loop {
        pass = Pass::new(imem, point, &poison, written);
        if !imem.is_empty() {
            let mut boot_state = [Abs::Const(0); 16];
            boot_state[15] = Abs::Top;
            pass.explore(0, boot_state, CtxKind::Boot, 0);
            for (&ev, addrs) in &table {
                for &a in addrs {
                    let st = pass.handler_entry_state();
                    pass.explore(a, st, CtxKind::Handler(ev), 0);
                }
            }
        }
        facts = harvest(&pass);
        if facts.dynamic_degrade {
            pass.degraded_global = true;
        }
        let stable =
            facts.table == table && facts.poison == poison && Some(facts.written) == written;
        round += 1;
        if stable {
            break;
        }
        if round >= MAX_ROUNDS {
            unstable = true;
            break;
        }
        table = facts.table.clone();
        poison = facts.poison.clone();
        written = Some(facts.written);
    }
    if unstable {
        pass.degraded_global = true;
        pass.diags.push(Diagnostic {
            lint: "analysis-unstable",
            severity: Severity::Warning,
            pc: None,
            line: None,
            handler: None,
            message: format!("whole-program facts did not stabilize in {MAX_ROUNDS} rounds"),
            hint: "self-modifying handler-table or code rewrites defeat the analysis".to_string(),
        });
    }

    let global_degraded = pass.degraded_global;

    // Per-root reports.
    let name_of = |addr: Addr| -> Option<String> {
        let symbols = symbols?;
        symbols
            .iter()
            .filter(|(_, &v)| v == i64::from(addr))
            .map(|(k, _)| k.clone())
            .next()
    };
    let empty_boot = HandlerReport {
        event: None,
        entry: if imem.is_empty() { None } else { Some(0) },
        symbol: None,
        terminates: Termination::Unknown,
        bound: None,
        loose: false,
        paper_band: None,
    };
    let mut boot_report = empty_boot.clone();
    // Done-terminating regions exported in `Analysis::regions`: a root
    // qualifies only when its verdict is Proved (which root_report
    // already degrades to Unknown under global degradation).
    let mut regions: Vec<crate::ProvenRegion> = Vec::new();
    for ctx in &pass.ctxs {
        if ctx.kind == CtxKind::Boot {
            let (terminates, bound, loose) = root_report(ctx, global_degraded);
            if terminates == Termination::Proved {
                regions.push(crate::ProvenRegion {
                    event: None,
                    entry: ctx.entry,
                    addrs: ctx.nodes.keys().copied().collect(),
                });
            }
            boot_report = HandlerReport {
                event: None,
                entry: Some(0),
                symbol: name_of(0),
                terminates,
                bound,
                loose,
                paper_band: bound.map(|b| PaperBand::of(b.instructions)),
            };
        }
    }

    let mut handlers: Vec<HandlerReport> = Vec::with_capacity(EVENT_TABLE_ENTRIES);
    for (i, &event) in snap_isa::EventKind::ALL.iter().enumerate() {
        let roots = facts.table.get(&i).cloned().unwrap_or_default();
        if roots.is_empty() {
            handlers.push(HandlerReport {
                event: Some(event),
                entry: None,
                symbol: None,
                terminates: Termination::Unknown,
                bound: None,
                loose: false,
                paper_band: None,
            });
            continue;
        }
        // Join over every root this event can dispatch to: weakest
        // verdict, max bound.
        let mut terminates: Option<Termination> = None;
        let mut bound: Option<Bound> = None;
        let mut loose = false;
        let mut entry = None;
        let mut symbol = None;
        for (ri, &root) in roots.iter().enumerate() {
            entry.get_or_insert(root);
            if symbol.is_none() {
                symbol = name_of(root);
            }
            let ctx = pass
                .ctxs
                .iter()
                .find(|c| c.kind == CtxKind::Handler(i) && c.entry == root);
            let (t, b, l) = match ctx {
                Some(ctx) => root_report(ctx, global_degraded),
                // Root discovered on the (degraded) final round but
                // never explored: claim nothing.
                None => (Termination::Unknown, None, false),
            };
            if t == Termination::Proved {
                if let Some(ctx) = ctx {
                    regions.push(crate::ProvenRegion {
                        event: Some(event),
                        entry: root,
                        addrs: ctx.nodes.keys().copied().collect(),
                    });
                }
            }
            terminates = Some(match terminates {
                None => t,
                Some(acc) if acc == t => t,
                Some(_) => Termination::Unknown,
            });
            loose |= l;
            bound = match (if ri == 0 { b } else { bound }, b) {
                (Some(acc), Some(nb)) => Some(Bound {
                    instructions: acc.instructions.max(nb.instructions),
                    energy_pj: acc.energy_pj.max(nb.energy_pj),
                }),
                _ => None,
            };
        }
        let terminates = terminates.unwrap_or(Termination::Unknown);
        handlers.push(HandlerReport {
            event: Some(event),
            entry,
            symbol,
            terminates,
            bound,
            loose,
            paper_band: bound.map(|b| PaperBand::of(b.instructions)),
        });
    }

    let mut diagnostics = std::mem::take(&mut pass.diags);
    diagnostics.extend(crate::lints::run(
        &pass.ctxs,
        &facts.table,
        &facts.written,
        global_degraded,
        imem.len(),
    ));

    // Whole-image event-flow analysis: graph, activation-chain proofs,
    // and the interprocedural lints.
    let (flow, flow_diags) = crate::flow::analyze_flow(
        &pass.ctxs,
        &facts.table,
        global_degraded,
        &poison,
        data_ranges,
    );
    diagnostics.extend(flow_diags);

    // Reachable instruction starts, across every context.
    let mut reachable: BTreeSet<Addr> = BTreeSet::new();
    for ctx in &pass.ctxs {
        reachable.extend(ctx.nodes.keys().copied());
    }

    // Attach source lines and apply `lint:allow` suppressions.
    if let Some(lines) = lines {
        diagnostics.retain_mut(|d| {
            let Some(pc) = d.pc else { return true };
            let Some(sl) = lines.get(&pc) else {
                return true;
            };
            d.line = Some((sl.module.clone(), sl.line));
            !sl.allowed_lints.iter().any(|a| a == d.lint || a == "all")
        });
    }
    diagnostics.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then(a.pc.cmp(&b.pc))
            .then(a.lint.cmp(b.lint))
    });

    Analysis {
        vdd_v: vdd_of(point),
        degraded: global_degraded,
        reachable,
        boot: boot_report,
        handlers,
        diagnostics,
        imem_words: imem.len(),
        regions,
        flow,
    }
}

fn vdd_of(point: OperatingPoint) -> f64 {
    point.vdd()
}
